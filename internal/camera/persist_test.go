package camera

import (
	"bytes"
	"strings"
	"testing"
)

func TestPathSaveLoadRoundTrip(t *testing.T) {
	p := Random(2.5, 3.5, 5, 15, 50, 9)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPath(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name {
		t.Errorf("name %q != %q", back.Name, p.Name)
	}
	if back.Len() != p.Len() {
		t.Fatalf("len %d != %d", back.Len(), p.Len())
	}
	for i := range p.Steps {
		if back.Steps[i] != p.Steps[i] {
			t.Fatalf("step %d: %v != %v (precision loss)", i, back.Steps[i], p.Steps[i])
		}
	}
}

func TestLoadPathRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a header\n1 2 3\n",
		"# vizcache-path x\n1 2\n",
		"# vizcache-path x\n1 2 z\n",
	}
	for i, c := range cases {
		if _, err := LoadPath(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLoadPathSkipsCommentsAndBlanks(t *testing.T) {
	in := "# vizcache-path demo\n1 2 3\n\n# a comment\n4 5 6\n"
	p, err := LoadPath(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Name != "demo" {
		t.Errorf("path = %q len %d", p.Name, p.Len())
	}
}

func TestSaveEmptyNameGetsDefault(t *testing.T) {
	p := Path{Steps: Orbit(3, 3).Steps}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPath(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "path" {
		t.Errorf("default name = %q", back.Name)
	}
}

// FuzzLoadPath: whatever the file holds, LoadPath returns (no panic), and a
// path it accepts is one Save writes out and LoadPath reads back to the same
// file: a fixed point after one round.
func FuzzLoadPath(f *testing.F) {
	var saved bytes.Buffer
	if err := Random(2.5, 3.5, 5, 15, 5, 9).Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add([]byte("# vizcache-path demo\n1 2 3\n\n# a comment\n4 5 6\n"))
	f.Add([]byte("# vizcache-path \nNaN -Inf +0\n-0 1e308 0x1p-3\n"))
	f.Add([]byte("# vizcache-path x\n1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPath(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := p.Save(&once); err != nil {
			t.Fatal(err)
		}
		back, err := LoadPath(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("Save wrote a file LoadPath refuses: %v\n%q", err, once.Bytes())
		}
		if back.Len() != p.Len() {
			t.Fatalf("%d steps saved, %d loaded back", p.Len(), back.Len())
		}
		if err := back.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("second round differs:\n%q\n%q", once.Bytes(), twice.Bytes())
		}
	})
}
