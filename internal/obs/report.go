package obs

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// Snapshot is a point-in-time copy of every counter the Observer holds, in a
// plain JSON-marshalable form. It backs the expvar endpoint, the debug
// server's /debug/obs page, and the end-of-run report.
type Snapshot struct {
	// Trace.
	Events int64 `json:"events"`

	// Physical transport counters (monotonic; replays included).
	WireFramesSent int64 `json:"wire_frames_sent"`
	WireFramesRecv int64 `json:"wire_frames_recv"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesRecv      int64 `json:"bytes_recv"`

	// Physical fault-layer counters (monotonic). Retries counts failed frame
	// Sends; each ends its run.
	Retries            int64         `json:"retries"`
	CheckpointSaves    int64         `json:"checkpoint_saves"`
	CheckpointBytes    int64         `json:"checkpoint_bytes"`
	CheckpointSaveTime time.Duration `json:"checkpoint_save_ns"`
	Aborts             int64         `json:"aborts"`
	SetupAborts        int64         `json:"setup_aborts"`

	// Census-engine counters (monotonic; fed once per census run).
	CensusSubgraphs int64 `json:"census_subgraphs"`
	CanonHits       int64 `json:"canon_hits"`
	CanonMisses     int64 `json:"canon_misses"`

	// Async-exchange counters (monotonic; fed by the pipelined message
	// plane's coordinator and flush paths).
	CreditRounds       int64 `json:"credit_rounds"`
	EarlyExpansions    int64 `json:"early_expansions"`
	FramesInFlightPeak int64 `json:"frames_in_flight_peak"`

	// Logical end-of-run state (exactly-once; zero until RunEnded).
	Ended          bool             `json:"ended"`
	Supersteps     int              `json:"supersteps"`
	MessagesTotal  int64            `json:"messages_total"`
	Counters       map[string]int64 `json:"counters,omitempty"`
	WorkerTime     []time.Duration  `json:"worker_time_ns,omitempty"`
	WorkerMessages []int64          `json:"worker_messages,omitempty"`
	WorkerLoads    []float64        `json:"worker_loads,omitempty"`
	RunErr         string           `json:"run_err,omitempty"`

	// Physical superstep log.
	Steps []StepMetrics `json:"steps,omitempty"`
}

// Snapshot copies the Observer's current state. Safe to call at any time,
// including mid-run from the debug server.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Events:             int64(o.seq.Load()),
		WireFramesSent:     o.wireFramesSent.Load(),
		WireFramesRecv:     o.wireFramesRecv.Load(),
		BytesSent:          o.bytesSent.Load(),
		BytesRecv:          o.bytesRecv.Load(),
		Retries:            o.retries.Load(),
		CheckpointSaves:    o.checkpointSaves.Load(),
		CheckpointBytes:    o.checkpointBytes.Load(),
		CheckpointSaveTime: time.Duration(o.checkpointNanos.Load()),
		Aborts:             o.aborts.Load(),
		SetupAborts:        o.setupAborts.Load(),
		CensusSubgraphs:    o.censusSubgraphs.Load(),
		CanonHits:          o.canonHits.Load(),
		CanonMisses:        o.canonMisses.Load(),
		CreditRounds:       o.creditRounds.Load(),
		EarlyExpansions:    o.earlyExpansions.Load(),
		FramesInFlightPeak: o.framesInFlightMax.Load(),
	}
	o.mu.Lock()
	s.Ended = o.ended
	s.Supersteps = o.supersteps
	s.MessagesTotal = o.messagesTotal
	if len(o.finalCounters) > 0 {
		s.Counters = make(map[string]int64, len(o.finalCounters))
		for k, v := range o.finalCounters {
			s.Counters[k] = v
		}
	}
	s.WorkerTime = append([]time.Duration(nil), o.workerTime...)
	s.WorkerMessages = append([]int64(nil), o.workerMessages...)
	s.WorkerLoads = append([]float64(nil), o.workerLoads...)
	s.RunErr = o.runErr
	s.Steps = append([]StepMetrics(nil), o.steps...)
	o.mu.Unlock()
	return s
}

// WriteReport renders the human-readable end-of-run report: a per-superstep
// time/volume table, the transport totals, and the fault-layer summary. It
// is what `psgl -trace` and `psgl-bench -trace` print to stderr.
func (o *Observer) WriteReport(w io.Writer) {
	if o == nil {
		return
	}
	s := o.Snapshot()
	fmt.Fprintf(w, "== observability report ==\n")
	if s.Ended {
		status := "ok"
		if s.RunErr != "" {
			status = s.RunErr
		}
		fmt.Fprintf(w, "run: %d supersteps, %d messages, status: %s\n",
			s.Supersteps, s.MessagesTotal, status)
	}

	if len(s.Steps) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "step\tcompute\texchange\tprocessed\tproduced")
		for _, st := range s.Steps {
			fmt.Fprintf(tw, "%d\t%v\t%v\t%d\t%d\n",
				st.Step, st.Compute.Round(time.Microsecond),
				st.Exchange.Round(time.Microsecond), st.Processed, st.Produced)
		}
		tw.Flush()
	}

	if s.BytesSent+s.BytesRecv+s.WireFramesSent > 0 {
		fmt.Fprintf(w, "transport: sent %d B / recv %d B; frames sent %d, recv %d\n",
			s.BytesSent, s.BytesRecv, s.WireFramesSent, s.WireFramesRecv)
	}
	if s.CheckpointSaves > 0 {
		fmt.Fprintf(w, "checkpoints: %d saves, %d B total, %v encode+store\n",
			s.CheckpointSaves, s.CheckpointBytes, s.CheckpointSaveTime.Round(time.Microsecond))
	}
	if s.Retries+s.Aborts+s.SetupAborts > 0 {
		fmt.Fprintf(w, "faults: %d failed sends, %d aborts, %d setup aborts\n",
			s.Retries, s.Aborts, s.SetupAborts)
	}
	if s.CreditRounds > 0 {
		fmt.Fprintf(w, "credit detector: %d rounds, %d early expansions, %d frames in flight at peak\n",
			s.CreditRounds, s.EarlyExpansions, s.FramesInFlightPeak)
	}
	if s.CensusSubgraphs+s.CanonHits+s.CanonMisses > 0 {
		lookups := s.CanonHits + s.CanonMisses
		rate := 0.0
		if lookups > 0 {
			rate = float64(s.CanonHits) / float64(lookups)
		}
		fmt.Fprintf(w, "census: %d subgraphs, canon cache %d/%d hits (%.4f hit rate)\n",
			s.CensusSubgraphs, s.CanonHits, lookups, rate)
	}

	if len(s.Counters) > 0 {
		names := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "counters:")
		for _, k := range names {
			fmt.Fprintf(w, " %s=%d", k, s.Counters[k])
		}
		fmt.Fprintln(w)
	}
	if len(s.WorkerLoads) > 0 {
		fmt.Fprintf(w, "worker loads:")
		for wk, l := range s.WorkerLoads {
			fmt.Fprintf(w, " w%d=%.3g", wk, l)
		}
		fmt.Fprintln(w)
	}
}
