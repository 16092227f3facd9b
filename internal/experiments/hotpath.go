package experiments

// Hotpath runs the engine's hot-path microbenchmarks (steady-state expansion
// and the exchange frame codec) via testing.Benchmark and
// reports ns/op, B/op, and allocs/op — the regression axes the PR-level
// acceptance tracks. HotpathJSON emits the same numbers machine-readably for
// the committed BENCH_hotpath.json baseline.

import (
	"fmt"
	"testing"

	"psgl/internal/core"
)

// HotpathResult is one microbenchmark's measurement in the JSON baseline.
type HotpathResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// HotpathReport is the full machine-readable hot-path baseline.
type HotpathReport struct {
	Benchmarks []HotpathResult `json:"benchmarks"`
	// FrameWireBytes is the encoded size of the frame benchmarks' batch.
	FrameWireBytes int `json:"frame_wire_bytes"`
	// CompressedFrames compares flat vs prefix-compressed encodings of the
	// same per-destination batch, per pattern and exchange depth: the
	// bytes-on-wire acceptance axis of Options.CompressFrames.
	CompressedFrames []core.CompressedBytesMeasure `json:"compressed_frames"`
}

func runHotpath() (*HotpathReport, error) {
	rep := &HotpathReport{}
	for _, hb := range core.HotpathBenchmarks() {
		r := testing.Benchmark(hb.Fn)
		res := HotpathResult{
			Name:        hb.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if v, ok := r.Extra["MB/s"]; ok {
			res.MBPerSec = v
		} else if r.Bytes > 0 && r.T > 0 {
			res.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	var err error
	if rep.FrameWireBytes, err = core.HotpathFrameBytes(); err != nil {
		return nil, err
	}
	if rep.CompressedFrames, err = core.HotpathCompressedBytes(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Hotpath returns the text report of the hot-path microbenchmarks.
func Hotpath() string { return mustText(runHotpath()) }

func (rep *HotpathReport) text() string {
	r := newReport("Hot path: expansion + exchange codec")
	r.row("bench", "ns/op", "B/op", "allocs/op", "MB/s")
	for _, b := range rep.Benchmarks {
		mb := "-"
		if b.MBPerSec > 0 {
			mb = fmt.Sprintf("%.0f", b.MBPerSec)
		}
		r.rowf("%s\t%.0f\t%d\t%d\t%s", b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, mb)
	}
	r.note("frame batch encoded: %dB", rep.FrameWireBytes)
	for _, c := range rep.CompressedFrames {
		r.note("compressed frames %s level %d: %d envelopes, flat %dB vs compressed %dB (%.2fx)",
			c.Pattern, c.Level, c.Envelopes, c.FlatBytes, c.CompressedBytes, c.Ratio)
	}
	return r.String()
}

// HotpathJSON runs the hot-path microbenchmarks once and returns that one
// report both ways: the text table, and the indented JSON committed as
// BENCH_hotpath.json.
func HotpathJSON() (text string, data []byte, err error) { return bothRenderings(runHotpath()) }
