package syndrome

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
)

// TestSaveLoadFile: a saved database loads back to the same encoding, a
// second Save replaces the first without leaving its temp file behind,
// and Load names an empty or torn file for what it is instead of handing
// back a half-built database.
func TestSaveLoadFile(t *testing.T) {
	db := New()
	db.AddMicro(fakeMicroResult(isa.OpFADD, faults.RangeSmall, faults.ModFP32, 1))
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	for range 2 {
		if err := Save(db, path); err != nil {
			t.Fatal(err)
		}
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Errorf("directory holds %v after two saves, want db.json alone", names)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(db)
	if got, _ := json.Marshal(back); !bytes.Equal(got, want) {
		t.Error("loaded database encodes differently from the saved one")
	}

	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, wantErr string
		content       []byte
	}{
		{"empty", "is empty", nil},
		{"torn", "truncated or corrupt", saved[:len(saved)/2]},
	} {
		bad := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(bad, tc.content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s file: Load error %v, want one naming %s and %q", tc.name, err, bad, tc.wantErr)
		}
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("absent file: Load error %v, want not-exist", err)
	}
}
