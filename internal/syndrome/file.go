package syndrome

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Save writes the database to a JSON file, the framework's publishable
// artefact (the paper's repository [23]). The write is atomic (see
// WriteFileAtomic), so a crashed or cancelled campaign can never leave a
// torn database behind.
func Save(db *DB, path string) error {
	blob, err := json.MarshalIndent(db, "", " ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, blob, 0o644)
}

// Load reads a database from a JSON file, rejecting empty or torn files
// with a descriptive error.
func Load(path string) (*DB, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(blob) == 0 {
		return nil, fmt.Errorf("syndrome: database %s is empty (truncated write? re-run the RTL characterisation)", path)
	}
	db := New()
	if err := json.Unmarshal(blob, db); err != nil {
		return nil, fmt.Errorf("syndrome: database %s is truncated or corrupt: %w", path, err)
	}
	return db, nil
}

// WriteFileAtomic writes data to a synced temp file in path's directory
// and renames it over path, so readers see the old content or the new,
// never a torn file. The job journal commits its records through it too.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // disarm cleanup; only the rename below can fail now
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Fsync the directory so the rename itself is durable. Some
	// filesystems reject directory fsync; tolerate that — the data file
	// is already synced and renamed.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
