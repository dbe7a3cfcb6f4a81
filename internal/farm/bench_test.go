package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/sim"
)

// benchResultFrame builds the representative hot-path frame: a chunk
// result with one small-valued hit count per coverage event, as the
// iounit fleet produces thousands of times per run.
func benchResultFrame(events int) *Frame {
	hits := make([]uint64, events)
	for i := range hits {
		hits[i] = uint64(i % 97)
	}
	return &Frame{Type: TypeResult, ID: 12345, Hits: hits, Sims: 256}
}

// benchCodecRoundTrip returns a benchmark closure that encodes and
// decodes the frame through a warm per-connection codec. SetBytes
// carries the *logical* coverage payload (8 bytes per event), so MB/s
// reads as how fast coverage data moves, not how fast the codec moves
// its own envelope.
func benchCodecRoundTrip(f *Frame) func(b *testing.B) {
	return func(b *testing.B) {
		c := &codec{}
		var buf bytes.Buffer
		got := Frame{Hits: make([]uint64, 0, len(f.Hits))}
		if err := c.write(&buf, f); err != nil {
			b.Fatal(err)
		}
		if err := c.read(&buf, &got); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(8 * len(f.Hits)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := c.write(&buf, f); err != nil {
				b.Fatal(err)
			}
			if err := c.read(&buf, &got); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWireCodec measures one result-frame round trip (encode +
// decode). This is the per-chunk protocol overhead with the transport
// and simulation subtracted out.
func BenchmarkWireCodec(b *testing.B) {
	benchCodecRoundTrip(benchResultFrame(256))(b)
}

// benchFleet wires the standard two-worker loopback fleet and hands it
// back with a cleanup.
func benchFleet(tb testing.TB) *Dispatcher {
	lb := NewLoopback()
	addrs := []string{"bench-w0", "bench-w1"}
	for _, addr := range addrs {
		srv := NewServer(ServerOptions{Capacity: 2})
		tb.Cleanup(srv.Shutdown)
		lb.Add(addr, srv, Faults{})
	}
	d := New(addrs, Options{Dial: lb.Dial})
	tb.Cleanup(d.Close)
	if err := d.WaitReady(5 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkFarmChunkPath measures the dispatcher-side cost of one
// remote chunk — request encode, server execution, result decode,
// merge into caller scratch. allocs/op is the allocs-per-chunk number
// the binary codec keeps near zero.
func BenchmarkFarmChunkPath(b *testing.B) {
	unit := iounit.New()
	events := unit.Model().Size()
	const instances = 256
	d := benchFleet(b)
	chunk := sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 42, Lo: 0, Hi: instances, Events: events,
	}
	dst := coverage.NewCounts(events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		if err := d.RunChunkInto(chunk, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*instances)/b.Elapsed().Seconds(), "sims/sec")
}

// ---- Persistent bench trajectory (BENCH_farm.json) ----

// benchFile is the committed benchmark baseline at the repo root. The
// guard below reads it to detect regressions and rewrites it with
// fresh numbers (commit the rewrite to advance the baseline).
const benchFile = "../../BENCH_farm.json"

type codecBenchRecord struct {
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchRecord is BENCH_farm.json: absolute numbers for the trajectory,
// benchstat-comparable lines for tooling, and the machine-normalized
// ratio the regression guard compares (farm throughput relative to the
// same machine's local throughput, so a slower runner does not read as
// a protocol regression).
type benchRecord struct {
	Date            string           `json:"date"`
	GoOS            string           `json:"goos"`
	GoArch          string           `json:"goarch"`
	MaxProcs        int              `json:"maxprocs"`
	Benchstat       []string         `json:"benchstat"`
	CodecV2         codecBenchRecord `json:"codec_v2"`
	LocalSimsPerSec float64          `json:"local_sims_per_sec"`
	FarmSimsPerSec  float64          `json:"farm_sims_per_sec"`
	FarmLocalRatio  float64          `json:"farm_local_ratio"`
}

func mbPerSec(r testing.BenchmarkResult, logicalBytes int) float64 {
	if r.T <= 0 {
		return 0
	}
	return float64(logicalBytes) * float64(r.N) / r.T.Seconds() / 1e6
}

func benchstatLine(name string, r testing.BenchmarkResult) string {
	return fmt.Sprintf("%s-%d\t%s\t%s", name, runtime.GOMAXPROCS(0), r.String(), r.MemString())
}

// measureFarmSimsPerSec is one chunk-path throughput sample over the
// loopback fleet.
func measureFarmSimsPerSec(t *testing.T) float64 {
	unit := iounit.New()
	events := unit.Model().Size()
	const instances = 512
	d := benchFleet(t)
	defer d.Close()
	chunk := sim.RemoteChunk{Unit: iounit.UnitName, Seed: 42, Lo: 0, Hi: instances, Events: events}
	dst := coverage.NewCounts(events)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Reset()
			if err := d.RunChunkInto(chunk, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(instances) / (time.Duration(res.NsPerOp())).Seconds()
}

// measureLocalSimsPerSec is one sample of the same workload run by a
// local environment — the normalization denominator.
func measureLocalSimsPerSec(t *testing.T) float64 {
	unit := iounit.New()
	const instances = 512
	env := sim.NewEnv(unit, 1, 2)
	defer env.Close()
	dst := coverage.NewCountsFor(unit.Model())
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Reset()
			if err := env.RunChunkInto(nil, 42, 0, instances, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(instances) / (time.Duration(res.NsPerOp())).Seconds()
}

// TestFarmBenchTrajectory is the CI bench job: it measures the codec
// and the full chunk path, guards the machine-normalized farm
// throughput against the committed BENCH_farm.json baseline (>10%
// regression fails), and rewrites the file with fresh numbers when the
// guard passes. The farm/local ratio moves with GOMAXPROCS, so the
// measurement runs at the baseline's recorded maxprocs. Gated
// behind BENCH_FARM=1 because wall-clock numbers are meaningless on
// noisy runners unless invoked deliberately. The codec's zero-alloc
// promise is pinned separately, in every run, by
// TestCodecV2RoundTripAllocs.
func TestFarmBenchTrajectory(t *testing.T) {
	if os.Getenv("BENCH_FARM") == "" {
		t.Skip("set BENCH_FARM=1 to run the farm bench trajectory guard")
	}
	var base benchRecord
	if raw, err := os.ReadFile(benchFile); err == nil {
		if err := json.Unmarshal(raw, &base); err != nil {
			t.Fatalf("corrupt %s: %v", benchFile, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if base.MaxProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(base.MaxProcs))
	}

	frame := benchResultFrame(256)
	res := testing.Benchmark(benchCodecRoundTrip(frame))
	rec := benchRecord{
		Date:     time.Now().UTC().Format(time.RFC3339),
		GoOS:     runtime.GOOS,
		GoArch:   runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		// The row keeps the name the committed trajectory and the repo
		// benchmark's micro rows use, so benchstat still pairs them.
		Benchstat: []string{benchstatLine("BenchmarkWireCodec/v2", res)},
		CodecV2: codecBenchRecord{
			NsPerOp: res.NsPerOp(), MBPerSec: mbPerSec(res, 8*len(frame.Hits)),
			AllocsPerOp: res.AllocsPerOp(), BytesPerOp: res.AllocedBytesPerOp(),
		},
	}
	t.Logf("codec: %d ns/op, %.1f MB/s, %d allocs/op", rec.CodecV2.NsPerOp, rec.CodecV2.MBPerSec, rec.CodecV2.AllocsPerOp)

	// Paired trials: local and farm throughput measured back to back,
	// guarding on the best per-pair ratio. Pairing cancels machine-wide
	// noise (a loaded runner slows both numerators and denominators);
	// taking the best of several pairs discards downward scheduling
	// spikes without hiding a real protocol regression, which would
	// depress every pair.
	for trial := 0; trial < 5; trial++ {
		local := measureLocalSimsPerSec(t)
		fleet := measureFarmSimsPerSec(t)
		if local <= 0 {
			continue
		}
		if r := fleet / local; r > rec.FarmLocalRatio {
			rec.FarmLocalRatio = r
			rec.LocalSimsPerSec = local
			rec.FarmSimsPerSec = fleet
		}
	}
	t.Logf("sims/sec: local %.0f, farm %.0f, ratio %.3f (best of 5 paired trials)",
		rec.LocalSimsPerSec, rec.FarmSimsPerSec, rec.FarmLocalRatio)

	// Trajectory guard: compare the machine-normalized ratio against
	// the committed baseline; a >10% drop is a protocol regression, and
	// a regressed run does not become the new baseline.
	if base.FarmLocalRatio > 0 && rec.FarmLocalRatio < base.FarmLocalRatio*0.90 {
		t.Fatalf("farm/local sims-per-sec ratio %.3f at maxprocs %d regressed >10%% vs committed baseline %.3f",
			rec.FarmLocalRatio, rec.MaxProcs, base.FarmLocalRatio)
	}

	out, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchFile, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", benchFile)
}
