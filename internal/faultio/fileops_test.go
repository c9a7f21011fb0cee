package faultio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// writeTemp writes data through fs into dir and returns the temp path.
func writeTemp(t *testing.T, fs FS, dir string, data []byte) (string, error) {
	t.Helper()
	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	_, werr := f.Write(data)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name(), werr
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fs FS = OSFS{}
	data := []byte("hello spill tier")
	tmp, err := writeTemp(t, fs, dir, data)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "final")
	if err := fs.Rename(tmp, dst); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %q (%v), want %q", got, err, data)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "final" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fs.Remove(dst); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFSInertPassesThrough(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 1})
	data := bytes.Repeat([]byte{0xAB}, 4096)
	tmp, err := writeTemp(t, fs, dir, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("inert FaultFS perturbed data (err=%v)", err)
	}
	if s := fs.Stats(); s.BytesWritten != int64(len(data)) || s.Ops == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultFSWriteFail(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 7, WriteFailRate: 1})
	_, err := writeTemp(t, fs, dir, []byte("doomed"))
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("want transient write failure, got %v", err)
	}
	if s := fs.Stats(); s.WriteFails != 1 || s.BytesWritten != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFaultFSShortWriteIsSilent pins the nastiest contract: a short write
// reports full success while persisting half the bytes.
func TestFaultFSShortWriteIsSilent(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 3, ShortWriteRate: 1})
	data := bytes.Repeat([]byte{0xCD}, 1000)
	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write(data)
	if err != nil || n != len(data) {
		t.Fatalf("short write must report success: n=%d err=%v", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(f.Name())
	if len(got) != len(data)/2 {
		t.Fatalf("persisted %d bytes, want %d", len(got), len(data)/2)
	}
	if s := fs.Stats(); s.ShortWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultFSCorruptionFlipsOneBit(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 5, CorruptRate: 1})
	data := bytes.Repeat([]byte{0x00}, 512)
	tmp, err := writeTemp(t, fs, dir, data)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(tmp)
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^data[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("want exactly 1 flipped bit, got %d", diff)
	}
	if s := fs.Stats(); s.Corruptions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultFSSyncAndRenameFail(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 9, SyncFailRate: 1, RenameFailRate: 1})
	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("want injected sync failure, got %v", err)
	}
	f.Close()
	if err := fs.Rename(f.Name(), filepath.Join(dir, "dst")); err == nil {
		t.Fatal("want injected rename failure")
	}
	if _, err := os.Stat(f.Name()); err != nil {
		t.Fatalf("failed rename must leave the source in place: %v", err)
	}
	if s := fs.Stats(); s.SyncFails != 1 || s.RenameFails != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultFSENOSPC(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 2, ENOSPCAfterBytes: 100})
	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatalf("first 100 bytes must fit: %v", err)
	}
	_, err = f.Write([]byte("overflow"))
	if err == nil || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrPermanent) {
		t.Fatalf("want ENOSPC-marked permanent fault, got %v", err)
	}
	if Retryable(err) {
		t.Fatal("full disk must not be retryable")
	}
	if s := fs.Stats(); s.ENOSPCWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFaultFSDeterministic pins the (Seed, n) contract: two runs with the
// same seed inject the same faults at the same operations.
func TestFaultFSDeterministic(t *testing.T) {
	run := func() []string {
		dir := t.TempDir()
		fs := NewFaultFS(nil, FileFaultConfig{Seed: 42, WriteFailRate: 0.3, SyncFailRate: 0.3})
		var log []string
		for i := 0; i < 40; i++ {
			f, err := fs.CreateTemp(dir, "t-*")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("abcdefgh")); err != nil {
				log = append(log, "w")
			} else if err := f.Sync(); err != nil {
				log = append(log, "s")
			} else {
				log = append(log, ".")
			}
			f.Close()
		}
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at op %d: %v vs %v", i, a, b)
		}
	}
}

// TestFaultFSSetConfigHeals verifies a healed config stops injecting.
func TestFaultFSSetConfigHeals(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 4, WriteFailRate: 1})
	if _, err := writeTemp(t, fs, dir, []byte("x")); err == nil {
		t.Fatal("want injected failure before heal")
	}
	fs.SetConfig(FileFaultConfig{Seed: 4})
	if _, err := writeTemp(t, fs, dir, []byte("x")); err != nil {
		t.Fatalf("healed FS must succeed: %v", err)
	}
}

// TestFaultFSReadAtPassesThrough: a positioned read, on the file being
// written or on one opened afresh, returns the bytes that landed, whatever
// fault mix is in force, and draws nothing from the fault stream — a reader
// holding descriptors open cannot shift the writer's (Seed, n) sequence.
func TestFaultFSReadAtPassesThrough(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil, FileFaultConfig{Seed: 9})
	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := []byte("header|payload bytes")
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(FileFaultConfig{Seed: 9, WriteFailRate: 1, ShortWriteRate: 1,
		CorruptRate: 1, SyncFailRate: 1, RenameFailRate: 1})
	opened, err := fs.Open(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	before := fs.Stats()
	for name, r := range map[string]File{"written": f, "opened": opened} {
		got := make([]byte, len(data)-7)
		if n, err := r.ReadAt(got, 7); n != len(got) || err != nil || !bytes.Equal(got, data[7:]) {
			t.Errorf("%s: ReadAt = %d, %v, %q; want %q", name, n, err, got[:n], data[7:])
		}
	}
	if after := fs.Stats(); after != before {
		t.Errorf("ReadAt moved the injector: %+v, then %+v", before, after)
	}
}
