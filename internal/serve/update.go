// The dynamic-graph plane: POST /update applies a batch of edge mutations to
// the resident graph, and POST /subscribe registers a standing query whose
// gained/lost embeddings stream to the client as each batch commits.
//
// Mutations go through a graph.Overlay serialized by mutMu: the batch is
// validated and applied, the new edge set is materialized as an immutable CSR
// snapshot, one delta enumeration per distinct subscribed pattern computes
// exactly the embeddings gained and lost (internal/delta — no full
// re-enumeration), and a fresh graphState is published atomically. Publishing
// invalidates everything keyed on the previous graph by replacing it: the
// plan cache (rebuilt against the new degree distribution), the engine's
// prepared state (patched from the compaction base's by the first query of
// the new epoch that needs it) and the census's per-k results (recounted
// likewise). Queries already in flight keep the graphState they loaded at
// admission, so they finish on a consistent snapshot.
//
// Past Config.CompactThreshold pending patch edges the overlay folds its
// patches into a fresh CSR base, bounding snapshot and engine-state patch
// cost over a long mutation history; the new base's engine state is built
// afresh, which also refreshes the degree order.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"psgl/internal/delta"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

const (
	// maxUpdateBody bounds one /update request body.
	maxUpdateBody = 8 << 20
	// subscriptionBuffer is how many un-consumed epoch payloads a standing
	// query may fall behind before it is closed as lagged. Dropping epochs
	// silently would corrupt the subscriber's maintained embedding set, so
	// lagging ends the stream instead.
	subscriptionBuffer = 16
	// maxEventLinesPerEpoch caps the embedding lines in one epoch's payload;
	// past it the epoch summary carries truncated=true (totals stay exact).
	maxEventLinesPerEpoch = 10000
)

// updateRequest is the POST /update body: edge batches as two-element
// [u, v] arrays. Removals apply before additions.
type updateRequest struct {
	Add    [][]int64 `json:"add"`
	Remove [][]int64 `json:"remove"`
}

// decodeUpdateBatch strictly decodes one update batch: unknown fields,
// trailing content, wrong-arity edges, and out-of-int32 vertex ids are all
// rejected before anything touches the overlay.
func decodeUpdateBatch(body []byte) (graph.Batch, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req updateRequest
	if err := dec.Decode(&req); err != nil {
		return graph.Batch{}, fmt.Errorf("bad update body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return graph.Batch{}, fmt.Errorf("bad update body: trailing content after batch object")
	}
	var b graph.Batch
	var err error
	if b.Add, err = convertEdges("add", req.Add); err != nil {
		return graph.Batch{}, err
	}
	if b.Remove, err = convertEdges("remove", req.Remove); err != nil {
		return graph.Batch{}, err
	}
	if len(b.Add)+len(b.Remove) == 0 {
		return graph.Batch{}, fmt.Errorf("empty update batch: need add or remove edges")
	}
	return b, nil
}

func convertEdges(kind string, in [][]int64) ([][2]graph.VertexID, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([][2]graph.VertexID, 0, len(in))
	for i, e := range in {
		if len(e) != 2 {
			return nil, fmt.Errorf("%s[%d]: an edge is a two-element [u, v] array, got %d elements", kind, i, len(e))
		}
		for _, x := range e {
			if x < 0 || x > math.MaxInt32 {
				return nil, fmt.Errorf("%s[%d]: vertex id %d out of range", kind, i, x)
			}
		}
		out = append(out, [2]graph.VertexID{graph.VertexID(e[0]), graph.VertexID(e[1])})
	}
	return out, nil
}

// updateResponse is the POST /update response body.
type updateResponse struct {
	// Epoch is the mutation epoch after this batch; /stats reports the same
	// number until the next batch.
	Epoch uint64 `json:"epoch"`
	// Added/Removed/Noops report the batch's effective mutations (an edge
	// added while present, or removed while absent, is a noop).
	Added   int `json:"added"`
	Removed int `json:"removed"`
	Noops   int `json:"noops"`
	// Edges and Fingerprint describe the graph now being served.
	Edges       int64  `json:"edges"`
	Fingerprint string `json:"fingerprint"`
	// PatchEdges is the overlay's pending patch size after the batch (0 right
	// after a compaction); Compacted reports that this batch triggered one.
	PatchEdges int  `json:"patch_edges"`
	Compacted  bool `json:"compacted,omitempty"`
	// Deltas holds one entry per distinct subscribed pattern: the embeddings
	// gained and lost by this batch, as streamed to the standing queries.
	Deltas []updateDelta `json:"deltas,omitempty"`
	WallMS float64       `json:"wall_ms"`
}

// updateDelta is one subscribed pattern's gained/lost summary for one batch.
type updateDelta struct {
	Canonical   string `json:"canonical"`
	Pattern     string `json:"pattern"`
	Gained      int64  `json:"gained"`
	Lost        int64  `json:"lost"`
	Runs        int    `json:"runs"`
	Subscribers int    `json:"subscribers"`
	// Error reports a failed delta enumeration. The mutation itself is
	// committed; the affected standing queries were told their maintained
	// sets are stale (same message on their streams).
	Error string `json:"error,omitempty"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.beginQuery() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.endQuery()

	body, err := io.ReadAll(io.LimitReader(r.Body, maxUpdateBody+1))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "reading update body: %v", err)
		return
	}
	if len(body) > maxUpdateBody {
		jsonError(w, http.StatusRequestEntityTooLarge, "update body over %d bytes", maxUpdateBody)
		return
	}
	batch, err := decodeUpdateBatch(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultDeadline)
	defer cancel()
	// An update is engine work — one delta enumeration per subscribed
	// pattern — so it passes the same admission gate as queries.
	if err := s.adm.acquire(ctx.Done()); err != nil {
		s.rejected.Add(1)
		if errors.Is(err, errQueueFull) {
			jsonError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		if ctx.Err() != nil && r.Context().Err() == nil {
			s.deadlineExceeded.Add(1)
			jsonError(w, http.StatusGatewayTimeout, "deadline expired while queued")
			return
		}
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.adm.release()
	if s.hookQueryAdmitted != nil {
		s.hookQueryAdmitted()
	}

	resp, err := s.applyUpdate(ctx, batch)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// applyUpdate is the serialized mutation path: overlay batch, snapshot,
// standing-query deltas, compaction, state publication, invalidations.
func (s *Server) applyUpdate(ctx context.Context, batch graph.Batch) (*updateResponse, error) {
	start := time.Now()
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	old := s.state.Load()
	res, err := s.overlay.ApplyBatch(batch)
	if err != nil {
		return nil, err
	}
	effective := len(res.Added) + len(res.Removed)
	s.mutBatches.Add(1)
	s.mutAdded.Add(int64(len(res.Added)))
	s.mutRemoved.Add(int64(len(res.Removed)))
	s.mutNoops.Add(int64(res.Noops))

	resp := &updateResponse{
		Epoch:   res.Epoch,
		Added:   len(res.Added),
		Removed: len(res.Removed),
		Noops:   res.Noops,
	}

	if effective == 0 {
		// All-noop batch: the epoch advances (the batch was accepted), but
		// the edge set is unchanged — plans, prepared engine state and census
		// all stay current, and standing queries have nothing to hear.
		s.state.Store(&graphState{graphData: old.graphData, epoch: res.Epoch})
		s.finishUpdate(resp, old.fp, false, start)
		return resp, nil
	}

	snap := s.overlay.Snapshot()
	resp.Deltas = s.runDeltas(ctx, old.g, snap, res)

	// The new epoch's engine state will be patched from the compaction base's
	// with the overlay's patch, captured here, before a compaction folds it
	// in. A compaction instead makes the snapshot the next base, whose state
	// is built afresh — in its own degree order — by the first query that
	// needs it.
	base := old.base
	var added, removed [][2]graph.VertexID
	compacted := false
	if thr := s.cfg.CompactThreshold; thr > 0 && s.overlay.PatchSize() >= thr {
		s.overlay.Compact()
		compacted = true
		base = &prepBase{g: snap, since: res.Epoch}
	} else {
		added, removed = s.overlay.Patch()
	}

	// Publish the new epoch. A fresh graphData is the invalidation of
	// everything derived from the old edge set: the plan cache (a cached
	// plan's initial vertex was selected against the old degree
	// distribution), the engine's prepared state and the census results — a
	// query still pinning the old epoch keeps reading the old ones.
	neu := &graphState{graphData: newGraphData(snap, res.Epoch, base, added, removed), epoch: res.Epoch}
	s.state.Store(neu)
	s.finishUpdate(resp, neu.fp, compacted, start)
	return resp, nil
}

// finishUpdate fills the response's graph fields and refreshes the atomic
// mirrors /stats reads without taking mutMu. Called with mutMu held.
func (s *Server) finishUpdate(resp *updateResponse, fp uint64, compacted bool, start time.Time) {
	resp.Edges = s.overlay.NumEdges()
	resp.Fingerprint = fmt.Sprintf("%016x", fp)
	resp.PatchEdges = s.overlay.PatchSize()
	resp.Compacted = compacted
	resp.WallMS = float64(time.Since(start).Microseconds()) / 1000
	s.mutPatch.Store(int64(s.overlay.PatchSize()))
	s.mutCompactions.Store(s.overlay.Compactions())
	s.mutEdgeFP.Store(s.overlay.Fingerprint())
}

// runDeltas computes one delta enumeration per distinct subscribed canonical
// pattern and fans the epoch's payload out to that pattern's subscribers.
func (s *Server) runDeltas(ctx context.Context, old, neu *graph.Graph, res graph.BatchResult) []updateDelta {
	groups := s.subscriptionGroups()
	if len(groups) == 0 {
		return nil
	}
	out := make([]updateDelta, 0, len(groups))
	for _, grp := range groups {
		d, err := delta.Enumerate(ctx, old, neu, res.Added, res.Removed, grp.pattern, delta.Options{
			Workers:    s.cfg.Workers,
			Seed:       s.cfg.Seed,
			Collect:    true,
			PrePlanned: true,
		})
		ud := updateDelta{Canonical: grp.key, Pattern: grp.name, Subscribers: len(grp.subs)}
		var errMsg string
		if err != nil {
			// The mutation is already committed; this epoch's gained/lost
			// never reached the standing queries, so their maintained sets
			// are stale from here on. Say so on their streams — consumers
			// must resynchronize with a fresh full query.
			errMsg = fmt.Sprintf("delta enumeration failed; maintained sets are stale, resynchronize: %v", err)
			ud.Error = errMsg
		} else {
			ud.Gained, ud.Lost, ud.Runs = d.Gained, d.Lost, d.Runs
			s.deltaGained.Add(d.Gained)
			s.deltaLost.Add(d.Lost)
			s.deltaRuns.Add(int64(d.Runs))
		}
		payload := encodeEpochPayload(res.Epoch, d, errMsg)
		for _, sub := range grp.subs {
			s.publish(sub, payload)
		}
		out = append(out, ud)
	}
	return out
}

// subEventLine is one embedding event on a subscription stream.
type subEventLine struct {
	Epoch     uint64           `json:"epoch"`
	Op        string           `json:"op"` // "gain" or "lose"
	Embedding []graph.VertexID `json:"embedding"`
}

// subSummaryLine closes one epoch on a subscription stream. Totals are exact
// even when the embedding lines were truncated.
type subSummaryLine struct {
	Epoch     uint64 `json:"epoch"`
	Done      bool   `json:"done"`
	Gained    int64  `json:"gained"`
	Lost      int64  `json:"lost"`
	Truncated bool   `json:"truncated,omitempty"`
	Error     string `json:"error,omitempty"`
}

// encodeEpochPayload renders one epoch's NDJSON: gain/lose embedding lines
// followed by the summary. One pre-encoded payload is shared by every
// subscriber of the pattern.
func encodeEpochPayload(epoch uint64, d *delta.Result, errMsg string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	lines := 0
	truncated := false
	sum := subSummaryLine{Epoch: epoch, Done: true, Error: errMsg}
	if d != nil {
		for _, m := range d.GainedEmbeddings {
			if lines >= maxEventLinesPerEpoch {
				truncated = true
				break
			}
			enc.Encode(subEventLine{Epoch: epoch, Op: "gain", Embedding: m})
			lines++
		}
		for _, m := range d.LostEmbeddings {
			if lines >= maxEventLinesPerEpoch {
				truncated = true
				break
			}
			enc.Encode(subEventLine{Epoch: epoch, Op: "lose", Embedding: m})
			lines++
		}
		sum.Gained, sum.Lost = d.Gained, d.Lost
	}
	sum.Truncated = truncated
	enc.Encode(sum)
	return buf.Bytes()
}

// subscription is one standing /subscribe stream: a pattern maintained
// across mutation epochs, fed pre-encoded payloads by the update path.
type subscription struct {
	id      int64
	key     string // canonical pattern key; subscribers group per key
	name    string
	pattern *pattern.Pattern // symmetry-broken once, at subscribe time

	// events carries one payload per mutation epoch. closed/lagged are
	// guarded by the server's subMu, so the channel closes exactly once.
	events chan []byte
	closed bool
	lagged bool
}

// subGroup is every live subscription of one canonical pattern.
type subGroup struct {
	key     string
	name    string
	pattern *pattern.Pattern
	subs    []*subscription
}

// subscriptionGroups snapshots the live subscriptions grouped by canonical
// pattern, in deterministic key order.
func (s *Server) subscriptionGroups() []subGroup {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	byKey := map[string]*subGroup{}
	var keys []string
	for _, sub := range s.subs {
		if sub.closed {
			continue
		}
		g, ok := byKey[sub.key]
		if !ok {
			g = &subGroup{key: sub.key, name: sub.name, pattern: sub.pattern}
			byKey[sub.key] = g
			keys = append(keys, sub.key)
		}
		g.subs = append(g.subs, sub)
	}
	sort.Strings(keys)
	out := make([]subGroup, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}

// publish hands one epoch payload to a subscriber. A subscriber that has
// fallen subscriptionBuffer epochs behind is closed as lagged rather than
// silently skipped — a gap would corrupt its maintained embedding set.
func (s *Server) publish(sub *subscription, payload []byte) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if sub.closed {
		return
	}
	select {
	case sub.events <- payload:
	default:
		sub.lagged = true
		sub.closed = true
		close(sub.events)
	}
}

func (s *Server) addSubscription(sub *subscription) bool {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.Draining() {
		return false
	}
	s.subSeq++
	sub.id = s.subSeq
	s.subs[sub.id] = sub
	return true
}

func (s *Server) removeSubscription(sub *subscription) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	delete(s.subs, sub.id)
}

// closeSubscriptions ends every standing stream — the Drain path.
func (s *Server) closeSubscriptions() {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, sub := range s.subs {
		if !sub.closed {
			sub.closed = true
			close(sub.events)
		}
	}
}

// subHello confirms a subscription: the canonical pattern and the epoch the
// stream starts after (events begin with the next accepted batch).
type subHello struct {
	Subscribed string `json:"subscribed"`
	Pattern    string `json:"pattern"`
	Epoch      uint64 `json:"epoch"`
}

// subClosed is the final line of a subscription stream.
type subClosed struct {
	Done   bool   `json:"done"`
	Reason string `json:"reason"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	src := r.FormValue("pattern")
	if src == "" {
		jsonError(w, http.StatusBadRequest, "missing required parameter 'pattern'")
		return
	}
	if _, isCensus, _ := pattern.ParseCensus(src); isCensus {
		jsonError(w, http.StatusBadRequest, "census queries cannot be subscribed; subscribe to a concrete pattern")
		return
	}
	p, err := pattern.Parse(src)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sub := &subscription{
		key:     p.CanonicalKey(),
		name:    p.Name(),
		pattern: p.BreakAutomorphisms(),
		events:  make(chan []byte, subscriptionBuffer),
	}
	if !s.addSubscription(sub) {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.removeSubscription(sub)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.Encode(subHello{Subscribed: sub.key, Pattern: sub.name, Epoch: s.state.Load().epoch})
	if flusher != nil {
		flusher.Flush()
	}

	for {
		select {
		case payload, ok := <-sub.events:
			if !ok {
				reason := "draining"
				if sub.lagged {
					reason = "subscriber lagged; resynchronize with a full query"
				}
				enc.Encode(subClosed{Done: true, Reason: reason})
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			w.Write(payload)
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// MutationStats is the /stats mutations section.
type MutationStats struct {
	// Epoch is the serving snapshot's mutation epoch (accepted batches).
	Epoch uint64 `json:"epoch"`
	// Batches counts accepted /update batches; EdgesAdded/EdgesRemoved count
	// effective changes, Noops the entries that changed nothing.
	Batches      int64 `json:"batches"`
	EdgesAdded   int64 `json:"edges_added"`
	EdgesRemoved int64 `json:"edges_removed"`
	Noops        int64 `json:"noops"`
	// PatchEdges is the overlay's pending patch size; Compactions counts
	// folds of the patch set into a fresh CSR base.
	PatchEdges       int64 `json:"patch_edges"`
	Compactions      int64 `json:"compactions"`
	CompactThreshold int   `json:"compact_threshold"`
	// EdgeFingerprint is the overlay's incrementally maintained
	// order-independent edge digest (graph.EdgeFingerprint of the served
	// snapshot).
	EdgeFingerprint string `json:"edge_fingerprint"`
	// Subscribers is the live standing-query count; DeltaGained/DeltaLost/
	// DeltaRuns aggregate their delta enumerations across all epochs.
	Subscribers int   `json:"subscribers"`
	DeltaGained int64 `json:"delta_gained"`
	DeltaLost   int64 `json:"delta_lost"`
	DeltaRuns   int64 `json:"delta_runs"`
}

func (s *Server) mutationStats(epoch uint64) MutationStats {
	s.subMu.Lock()
	nsubs := len(s.subs)
	s.subMu.Unlock()
	return MutationStats{
		Epoch:            epoch,
		Batches:          s.mutBatches.Load(),
		EdgesAdded:       s.mutAdded.Load(),
		EdgesRemoved:     s.mutRemoved.Load(),
		Noops:            s.mutNoops.Load(),
		PatchEdges:       s.mutPatch.Load(),
		Compactions:      s.mutCompactions.Load(),
		CompactThreshold: s.cfg.CompactThreshold,
		EdgeFingerprint:  fmt.Sprintf("%016x", s.mutEdgeFP.Load()),
		Subscribers:      nsubs,
		DeltaGained:      s.deltaGained.Load(),
		DeltaLost:        s.deltaLost.Load(),
		DeltaRuns:        s.deltaRuns.Load(),
	}
}
