package bsp

// Error-path coverage for checkpoint integrity: a damaged snapshot must
// surface ErrCorruptCheckpoint from the resume path — never a panic, never a
// silent partial restore — regardless of how the file was damaged.

import (
	"bytes"
	"errors"
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
