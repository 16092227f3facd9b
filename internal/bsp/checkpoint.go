package bsp

// Barrier checkpointing. The paper inherits fault tolerance from its
// Pregel/Giraph substrate (Section 6): a long multi-superstep enumeration that
// stops is restarted from its last snapshot, aligned with a superstep barrier.
// A barrier is the only point where the global state collapses to "the next
// supersteps's inboxes plus the merged run stats", so that pair is exactly
// what a snapshot holds: a new run that loads it and enters the superstep
// loop there finishes as if the first had never stopped.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNoCheckpoint reports that a store holds no snapshot yet.
var ErrNoCheckpoint = errors.New("bsp: no checkpoint available")

// ErrCorruptCheckpoint reports that a stored snapshot failed integrity
// verification — wrong magic, checksum mismatch (truncation, bit rot), or an
// undecodable payload — or that it belongs to another run (a Snapshotter
// refuses the program state, or the worker count differs). It surfaces
// wrapped from Config.ResumeFrom, so callers can distinguish "the checkpoint
// is unusable" from "the store is empty" (ErrNoCheckpoint) with errors.Is.
var ErrCorruptCheckpoint = errors.New("bsp: corrupt checkpoint")

// Snapshot file layout: an 8-byte magic, a CRC-32 (IEEE) of the payload, then
// the gob-encoded snapshot. Gob alone cannot detect most single-bit flips —
// it would happily decode damaged inboxes — so the checksum is what turns
// silent corruption into ErrCorruptCheckpoint.
const checkpointMagic = "PSGLCKP1"

const checkpointHeaderLen = len(checkpointMagic) + 4

// sealSnapshot prepends the magic + checksum header to a gob payload.
func sealSnapshot(payload []byte) []byte {
	out := make([]byte, 0, checkpointHeaderLen+len(payload))
	out = append(out, checkpointMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// openSnapshot verifies and strips the header, returning the gob payload.
func openSnapshot(data []byte) ([]byte, error) {
	if len(data) < checkpointHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, below the %d-byte header", ErrCorruptCheckpoint, len(data), checkpointHeaderLen)
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptCheckpoint, data[:len(checkpointMagic)])
	}
	want := binary.LittleEndian.Uint32(data[len(checkpointMagic):])
	payload := data[checkpointHeaderLen:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorruptCheckpoint, want, got)
	}
	return payload, nil
}

// CheckpointStore persists encoded barrier snapshots. Save replaces the
// store's notion of "latest" with the given step; Load returns the latest
// snapshot or ErrNoCheckpoint. Implementations must be safe for use by one
// run at a time; MemCheckpointStore and FileCheckpointStore are additionally
// safe for concurrent use.
type CheckpointStore interface {
	Save(step int, data []byte) error
	Load() (step int, data []byte, err error)
}

// snapshot is the unit of checkpointing: the state of a run at the boundary
// entering superstep (or pipelined epoch) Step. Prog is the opaque
// Snapshotter state of programs that carry accumulators outside the inboxes
// (nil otherwise). Inboxes[w] is worker w's queued chunks, its own work
// first, concatenated: the format predates chunks and the pipelined queue
// order, and a restored queue is delivered work in any order. Frames[w] holds
// its still-encoded flat frame payloads (a TCP run's deliveries: a snapshot
// keeps them encoded, so a checkpoint of a dense superstep costs its encoded
// size); an in-process run's snapshot has Frames nil.
type snapshot[M any] struct {
	Step    int
	Inboxes [][]Envelope[M]
	Stats   RunStats
	Prog    []byte
	Frames  [][][]byte
}

// inboxRows converts the snapshot's persisted form back into the workers'
// queues; frames stay encoded.
func (snap *snapshot[M]) inboxRows(k int) []Inbox[M] {
	rows := make([]Inbox[M], k)
	for w := range rows {
		if w < len(snap.Inboxes) && len(snap.Inboxes[w]) > 0 {
			rows[w].Chunks = [][]Envelope[M]{snap.Inboxes[w]}
		}
		if w < len(snap.Frames) {
			rows[w].Frames = snap.Frames[w]
		}
	}
	return rows
}

// saveSnapshot encodes, seals, and stores the barrier state, returning the
// number of bytes written to the store.
func saveSnapshot[M any](store CheckpointStore, step int, inboxes []Inbox[M], stats *RunStats, snapper Snapshotter) (int, error) {
	var buf bytes.Buffer
	snap := snapshot[M]{Step: step, Stats: *stats}
	snap.Inboxes = make([][]Envelope[M], len(inboxes))
	for w := range inboxes {
		snap.Inboxes[w] = flatten(inboxes[w].own, inboxes[w].Chunks)
		if len(inboxes[w].Frames) > 0 {
			if snap.Frames == nil {
				snap.Frames = make([][][]byte, len(inboxes))
			}
			snap.Frames[w] = inboxes[w].Frames
		}
	}
	if snapper != nil {
		prog, err := snapper.SnapshotState()
		if err != nil {
			return 0, fmt.Errorf("snapshot program state: %w", err)
		}
		snap.Prog = prog
	}
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return 0, fmt.Errorf("encode snapshot: %w", err)
	}
	sealed := sealSnapshot(buf.Bytes())
	if err := store.Save(step, sealed); err != nil {
		return 0, err
	}
	return len(sealed), nil
}

func loadSnapshot[M any](store CheckpointStore) (*snapshot[M], error) {
	step, data, err := store.Load()
	if err != nil {
		return nil, err
	}
	payload, err := openSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot for step %d: %w", step, err)
	}
	var snap snapshot[M]
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: decode snapshot for step %d: %v", ErrCorruptCheckpoint, step, err)
	}
	// Gob omits zero-valued fields; re-materialize what restore expects.
	if snap.Stats.Counters == nil {
		snap.Stats.Counters = map[string]int64{}
	}
	// The CRC seal catches store-level damage; this catches a snapshot whose
	// frames are internally inconsistent or not flat (they would otherwise
	// only fail deep inside a superstep, after the restore "succeeded").
	for w := range snap.Frames {
		for i, fp := range snap.Frames[w] {
			if _, _, err := DecodeWireFrame[M](fp); err != nil {
				return nil, fmt.Errorf("%w: snapshot for step %d: inbox frame %d for worker %d: %v",
					ErrCorruptCheckpoint, step, i, w, err)
			}
		}
	}
	return &snap, nil
}

// MemCheckpointStore keeps the latest snapshot in memory — the default for
// single-process runs and tests.
type MemCheckpointStore struct {
	mu    sync.Mutex
	step  int
	data  []byte
	saves int
}

// NewMemCheckpointStore returns an empty in-memory store.
func NewMemCheckpointStore() *MemCheckpointStore { return &MemCheckpointStore{} }

// Save retains a copy of data as the latest snapshot.
func (s *MemCheckpointStore) Save(step int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.step = step
	s.data = append([]byte(nil), data...)
	s.saves++
	return nil
}

// Load returns the latest snapshot or ErrNoCheckpoint.
func (s *MemCheckpointStore) Load() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return 0, nil, ErrNoCheckpoint
	}
	return s.step, append([]byte(nil), s.data...), nil
}

// Saves reports how many snapshots have been written (for cadence tests).
func (s *MemCheckpointStore) Saves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves
}

// LatestStep reports the step of the latest snapshot (0 when empty).
func (s *MemCheckpointStore) LatestStep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.step
}

// FileCheckpointStore persists snapshots as files in a directory, surviving
// the process — the store to pair with Config.ResumeFrom across runs. A save
// writes a temp file, syncs it, renames it into place and syncs the directory,
// so a crash at any point leaves either the previous snapshot or the complete
// new one as the latest — never a short or empty step file; older snapshots
// are pruned after each successful save.
type FileCheckpointStore struct {
	dir string
	mu  sync.Mutex
}

const (
	checkpointSuffix = ".ckpt"
	checkpointTmp    = "tmp-" // prefix of a save in progress
)

// NewFileCheckpointStore opens (creating if needed) a directory-backed store,
// removing the temp files of saves a killed process never finished.
func NewFileCheckpointStore(dir string) (*FileCheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bsp: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("bsp: checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), checkpointTmp) {
			os.Remove(filepath.Join(dir, e.Name())) // best-effort: a leftover costs space, not correctness
		}
	}
	return &FileCheckpointStore{dir: dir}, nil
}

func (s *FileCheckpointStore) path(step int) string {
	return filepath.Join(s.dir, fmt.Sprintf("step-%012d%s", step, checkpointSuffix))
}

// Save atomically and durably writes the snapshot for step, then prunes older
// ones.
func (s *FileCheckpointStore) Save(step int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeDurably(step, data); err != nil {
		return fmt.Errorf("bsp: checkpoint save: %w", err)
	}
	steps, err := s.listSteps()
	if err != nil {
		return nil // pruning is best-effort
	}
	for _, old := range steps {
		if old != step {
			os.Remove(s.path(old))
		}
	}
	return nil
}

// writeDurably is the crash-safe part of Save. The rename is what publishes
// the snapshot, so the bytes must be on disk before it (or a crash could leave
// a zero-length step file as the only snapshot), and the directory entry after
// it (or the rename itself could be lost while older snapshots are pruned).
func (s *FileCheckpointStore) writeDurably(step int, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, checkpointTmp+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(step))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	dir, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Load returns the snapshot with the highest step, or ErrNoCheckpoint.
func (s *FileCheckpointStore) Load() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	steps, err := s.listSteps()
	if err != nil {
		return 0, nil, fmt.Errorf("bsp: checkpoint load: %w", err)
	}
	if len(steps) == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	latest := steps[len(steps)-1]
	data, err := os.ReadFile(s.path(latest))
	if err != nil {
		return 0, nil, fmt.Errorf("bsp: checkpoint load: %w", err)
	}
	return latest, data, nil
}

func (s *FileCheckpointStore) listSteps() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "step-") || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		var step int
		if _, err := fmt.Sscanf(name, "step-%d"+checkpointSuffix, &step); err != nil {
			continue
		}
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}
