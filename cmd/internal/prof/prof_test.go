package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: after stop, both requested profiles exist
// and are non-empty; with neither requested, Start and stop do nothing.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %v)", p, err, fi)
		}
	}
	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
