package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded in every report, because none of the numbers mean
// much without it.
type environment struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Kernel     string   `json:"kernel"`
	ScratchDir string   `json:"scratch_dir"`
	ScratchFS  string   `json:"scratch_fs"`
	Commit     string   `json:"git_commit"`
	Caveats    []string `json:"caveats"`
}

func readEnvironment(scratch string) environment {
	e := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), // left at its default
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		ScratchDir: scratch,
		ScratchFS:  fsType(scratch),
		Commit:     "unknown",
		Caveats: []string{
			"client and server share this process and its cores; the wire is loopback TCP, so no NIC, no propagation delay",
			"the block file was just written and is read through the page cache: blockfile reads cost memory copies, not seeks",
			"spill-tier fsync goes to whatever backs the scratch directory; on tmpfs it is free, on a virtual disk it is noisy",
		},
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(raw))
	}
	return e
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s kernel=%s scratch=%s (%s) commit=%s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.ScratchDir, e.ScratchFS, e.Commit)
	for _, c := range e.Caveats {
		fmt.Fprintf(w, "env: caveat: %s\n", c)
	}
}
