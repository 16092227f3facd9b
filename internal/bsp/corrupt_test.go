package bsp

// Error-path coverage for checkpoint integrity: a damaged snapshot must
// surface ErrCorruptCheckpoint from the resume path — never a panic, never a
// silent partial restore — regardless of how the file was damaged.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSealOpenSnapshotRoundTrip(t *testing.T) {
	payload := []byte("gob bytes stand-in")
	sealed := sealSnapshot(payload)
	if len(sealed) != checkpointHeaderLen+len(payload) {
		t.Fatalf("sealed length %d, want %d", len(sealed), checkpointHeaderLen+len(payload))
	}
	got, err := openSnapshot(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: %q != %q", got, payload)
	}
}

// checkpointedRunDir runs an echo program with a file-backed store and
// returns the directory plus the single snapshot file inside it.
func checkpointedRunDir(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog, cfg := newEcho(60, 5, 3)
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	if _, err := Run[wint](cfg, prog); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var file string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), checkpointSuffix) {
			file = filepath.Join(dir, e.Name())
		}
	}
	if file == "" {
		t.Fatal("no snapshot file written")
	}
	return dir, file
}

func TestResumeFromCorruptCheckpoint(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, data []byte) []byte
	}{
		{"truncated below header", func(t *testing.T, data []byte) []byte {
			return data[:checkpointHeaderLen-3]
		}},
		{"truncated payload", func(t *testing.T, data []byte) []byte {
			return data[:len(data)-7]
		}},
		{"single bit flip", func(t *testing.T, data []byte) []byte {
			out := append([]byte(nil), data...)
			out[len(out)/2] ^= 0x10
			return out
		}},
		{"bad magic", func(t *testing.T, data []byte) []byte {
			out := append([]byte(nil), data...)
			out[0] = 'X'
			return out
		}},
		{"valid checksum over damaged gob", func(t *testing.T, data []byte) []byte {
			// Reseal a truncated payload with a freshly computed CRC: the
			// checksum passes, so only the gob decoder can catch this one.
			payload, err := openSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			return sealSnapshot(payload[:len(payload)-5])
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir, file := checkpointedRunDir(t)
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, tc.corrupt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			store, err := NewFileCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			prog, cfg := newEcho(60, 5, 3)
			cfg.ResumeFrom = store
			_, err = Run[wint](cfg, prog)
			if err == nil {
				t.Fatal("resume from a corrupt checkpoint succeeded")
			}
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
			if errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("err = %v must not read as an empty store", err)
			}
		})
	}
}

func TestOpenSnapshotRejectsEmpty(t *testing.T) {
	if _, err := openSnapshot(nil); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

// TestResumeFromTruncatedNewestCheckpoint: the state a crash between an
// unsynced write and its rename could leave — a zero-length newest step file
// beside an older intact one — must end a resume in ErrCorruptCheckpoint: no
// panic, no silent fall-back to the older snapshot, no silent fresh start.
func TestResumeFromTruncatedNewestCheckpoint(t *testing.T) {
	dir, file := checkpointedRunDir(t)
	var step int
	if _, err := fmt.Sscanf(filepath.Base(file), "step-%d"+checkpointSuffix, &step); err != nil {
		t.Fatal(err)
	}
	store, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.path(step+1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ran := false
	prog := &funcProgram[wint]{init: func(*Context[wint]) { ran = true }, process: func(*Context[wint], Envelope[wint]) {}}
	_, cfg := newEcho(60, 5, 3)
	cfg.ResumeFrom = store
	_, err = Run[wint](cfg, prog)
	if !errors.Is(err, ErrCorruptCheckpoint) || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
	if ran {
		t.Fatal("resume from a truncated checkpoint started the run afresh")
	}
}

// TestFileCheckpointStoreSweepsOrphanedTempFiles: temp files of saves a killed
// process never renamed are removed when the directory is next opened; the
// snapshots beside them are not.
func TestFileCheckpointStoreSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(4, []byte("four")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{checkpointTmp + "123", checkpointTmp + "456"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a snap"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(store.path(4)) {
		t.Fatalf("directory holds %v after reopening, want only the step-4 snapshot", entries)
	}
	if step, data, err := reopened.Load(); err != nil || step != 4 || string(data) != "four" {
		t.Fatalf("Load = (%d, %q, %v), want (4, four, nil)", step, data, err)
	}
}
