package main

import (
	"bytes"
	"embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/duv/ifu"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/farm"
	"repro/internal/generator"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/template"
)

// testdata holds the best template each workload's reference run
// harvested (see -harvest). The micro rows simulate these, on the
// compiled-plan path the flow runs, instead of the units' base
// templates.
//
//go:embed testdata/*.tmpl
var testdata embed.FS

func harvested(unit string) (*template.Template, error) {
	src, err := testdata.ReadFile("testdata/" + unit + ".tmpl")
	if err != nil {
		return nil, err
	}
	return template.Parse(string(src))
}

// microSink keeps the timed calls' results alive.
var microSink uint64

// microBudget is how long each micro row times its call.
const microBudget = 200 * time.Millisecond

// timed calls f(batch) until microBudget has passed and returns the
// nanoseconds and mallocs per call; f must make batch calls.
func timed(batch int, f func(n int)) (ns, allocs float64) {
	f(batch) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for time.Since(start) < microBudget {
		f(batch)
		calls += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// micro times direct calls into the program's public functions and
// returns the rows by metric name; benchstat-comparable lines go to w.
func micro(w io.Writer, dataRoot string) (map[string]metric, error) {
	m := map[string]metric{}
	procs := runtime.GOMAXPROCS(0)
	line := func(name string, ns float64, extra string) {
		fmt.Fprintf(w, "Benchmark%s-%d\t1\t%.2f ns/op%s\n", name, procs, ns, extra)
	}
	units := []duv.DUV{l3cache.New(), iounit.New(), ifu.New()}
	tmpls := map[string]*template.Template{}
	for _, u := range units {
		t, err := harvested(u.Name())
		if err != nil {
			return nil, err
		}
		tmpls[u.Name()] = t
	}
	var sink uint64

	// duv: Simulate on the compiled plan of the harvested template.
	for _, u := range units {
		plan := generator.Compile(tmpls[u.Name()], u.Defaults())
		seed := uint64(1)
		per, allocs := timed(16, func(n int) {
			for i := 0; i < n; i++ {
				seed++
				sink += uint64(u.Simulate(generator.NewFromPlan(plan, seed)).PopCount())
			}
		})
		m["duv."+u.Name()+".simulate_us"] = metric{per / 1e3, "us"}
		m["duv."+u.Name()+".allocs"] = metric{allocs, "count"}
		line("DUVSimulate/"+u.Name(), per, fmt.Sprintf("\t%.1f allocs/op", allocs))
	}

	// generator: one decision per template parameter over the l3cache
	// plan, and compiling that plan.
	l3, l3t := units[0], tmpls[l3cache.UnitName]
	plan := generator.Compile(l3t, l3.Defaults())
	g := generator.NewFromPlan(plan, 7)
	picks := make([]func(), 0, len(l3t.Params))
	for _, p := range l3t.Params {
		name := p.ParamName()
		if wp, ok := p.(*template.WeightParam); ok && len(wp.Entries) > 0 && !wp.Entries[0].IsRange {
			picks = append(picks, func() { sink += uint64(len(g.PickValue(name))) })
		} else {
			picks = append(picks, func() { sink += uint64(g.PickInt(name)) })
		}
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("harvested l3cache template has no parameters")
	}
	per, _ := timed(64, func(n int) {
		for i := 0; i < n; i++ {
			picks[i%len(picks)]()
		}
	})
	m["generator.decision_ns"] = metric{per, "ns"}
	line("GeneratorDecision/l3cache", per, "")
	per, _ = timed(8, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(generator.Compile(l3t, l3.Defaults()).Template().Params))
		}
	})
	m["generator.compile_us"] = metric{per / 1e3, "us"}
	line("GeneratorCompile/l3cache", per, "")

	// rng: alternating Uint64 and WeightedIndex draws.
	r := rng.New(11)
	weights := []int{5, 0, 12, 3, 40, 7, 1, 9}
	per, _ = timed(256, func(n int) {
		for i := 0; i < n; i += 2 {
			sink += r.Uint64()
			sink += uint64(r.WeightedIndex(weights))
		}
	})
	m["rng.draw_ns"] = metric{per, "ns"}
	line("RNGDraw", per, "")

	// coverage: merging aggregates (Merge, AddRaw) and adding one
	// instance's vector (Add), at each unit's model size.
	var mergeNs, addNs float64
	for _, u := range units {
		size := u.Model().Size()
		a, b := coverage.NewCounts(size), coverage.NewCounts(size)
		v := coverage.NewVector(size)
		for i := 0; i < size; i += 3 {
			v.Set(i)
		}
		b.Add(v)
		hits, sims := b.Raw()
		merge, _ := timed(64, func(n int) {
			for i := 0; i < n; i += 2 {
				a.Merge(b)
				a.AddRaw(hits, sims)
			}
		})
		add, _ := timed(64, func(n int) {
			for i := 0; i < n; i++ {
				a.Add(v)
			}
		})
		mergeNs += merge / float64(len(units))
		addNs += add / float64(len(units))
		line("CountsMerge/"+u.Name(), merge, "")
		line("CountsAdd/"+u.Name(), add, "")
	}
	m["coverage.merge_ns"] = metric{mergeNs, "ns"}
	m["coverage.add_ns"] = metric{addNs, "ns"}

	// sim: scheduler dispatch and merge over a unit that returns a
	// fixed vector, so no simulation time is counted.
	iou := units[1]
	stub := stubDUV{DUV: iou, v: coverage.NewVectorFor(iou.Model())}
	stub.v.Set(0)
	env := sim.NewEnv(stub, 3, procs)
	const batch = 4096
	var simErr error
	per, _ = timed(1, func(n int) {
		for i := 0; i < n; i++ {
			job, err := env.Submit(tmpls[iounit.UnitName], batch)
			if err != nil {
				simErr = err
				return
			}
			sink += job.Wait().Sims()
		}
	})
	env.Close()
	if simErr != nil {
		return nil, simErr
	}
	m["sim.dispatch_ns_per_sim"] = metric{per / batch, "ns"}
	line("SimDispatch/stub", per/batch, "")

	// farm: the binary codec round trip of a 256-event result frame
	// (the BENCH_farm.json codec row), and farm over local throughput
	// on the loopback fleet.
	frame := &farm.Frame{Type: farm.TypeResult, ID: 12345, Hits: make([]uint64, 256), Sims: 256}
	for i := range frame.Hits {
		frame.Hits[i] = uint64(i % 97)
	}
	var buf bytes.Buffer
	got := farm.Frame{Hits: make([]uint64, 0, 256)}
	var codecErr error
	per, allocs := timed(64, func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := farm.WriteFrameV2(&buf, frame); err != nil {
				codecErr = err
			}
			if err := farm.ReadFrameV2(&buf, &got); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return nil, codecErr
	}
	mbps := float64(8*len(frame.Hits)) / per * 1e3
	m["farm.codec_ns"] = metric{per, "ns"}
	m["farm.codec_mb_per_s"] = metric{mbps, "MB/s"}
	m["farm.codec_allocs"] = metric{allocs, "count"}
	line("WireCodec/v2", per, fmt.Sprintf("\t%.2f MB/s\t%.1f allocs/op", mbps, allocs))
	ratio, remote, err := farmLocalRatio(iou)
	if err != nil {
		return nil, err
	}
	m["farm.local_ratio"] = metric{ratio, "ratio"}
	line("FarmChunk/iounit", remote, fmt.Sprintf("\t%.4f farm/local", ratio))

	// journal: Create plus fsynced appends; atomicfile: crash-safe
	// writes; both on the campaigns data root.
	dir, err := os.MkdirTemp(dataRoot, "micro-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jw, err := journal.Create(filepath.Join(dir, "micro.journal"), nil)
	if err != nil {
		return nil, err
	}
	rec := struct {
		Round int       `json:"round"`
		Best  []float64 `json:"best"`
	}{3, []float64{0.25, 0.5, 0.125, 0.75}}
	var ioErr error
	per, _ = timed(4, func(n int) {
		for i := 0; i < n; i++ {
			if err := jw.Append("bench", rec); err != nil {
				ioErr = err
			}
		}
	})
	if err := jw.Close(); err != nil && ioErr == nil {
		ioErr = err
	}
	m["journal.append_us"] = metric{per / 1e3, "us"}
	line("JournalAppend", per, "")
	payload := bytes.Repeat([]byte("x"), 1024)
	per, _ = timed(4, func(n int) {
		for i := 0; i < n; i++ {
			err := atomicfile.WriteFile(filepath.Join(dir, "state.json"), func(w io.Writer) error {
				_, err := w.Write(payload)
				return err
			})
			if err != nil {
				ioErr = err
			}
		}
	})
	if ioErr != nil {
		return nil, ioErr
	}
	m["atomicfile.write_us"] = metric{per / 1e3, "us"}
	line("AtomicfileWrite", per, "")
	microSink = sink
	return m, nil
}

// stubDUV returns one fixed vector for every instance.
type stubDUV struct {
	duv.DUV
	v coverage.Vector
}

func (s stubDUV) Simulate(*generator.Generator) coverage.Vector { return s.v }

// farmLocalRatio is iounit chunk throughput over the loopback farm
// divided by the same chunks run locally, best of three paired trials
// (the BENCH_farm.json guard's machine-normalized ratio), and the farm
// nanoseconds per chunk of that trial.
func farmLocalRatio(unit duv.DUV) (ratio, remoteNs float64, err error) {
	const instances = 512
	events := unit.Model().Size()
	fl, err := newFleet(2)
	if err != nil {
		return 0, 0, err
	}
	defer fl.close()
	env := sim.NewEnv(unit, 1, 2)
	defer env.Close()
	dst := coverage.NewCounts(events)
	chunk := sim.RemoteChunk{Unit: unit.Name(), Seed: 42, Lo: 0, Hi: instances, Events: events}
	for trial := 0; trial < 3; trial++ {
		var runErr error
		local, _ := timed(1, func(n int) {
			for i := 0; i < n; i++ {
				dst.Reset()
				if err := env.RunChunkInto(nil, 42, 0, instances, dst); err != nil {
					runErr = err
				}
			}
		})
		remote, _ := timed(1, func(n int) {
			for i := 0; i < n; i++ {
				dst.Reset()
				if err := fl.disp.RunChunkInto(chunk, dst); err != nil {
					runErr = err
				}
			}
		})
		if runErr != nil {
			return 0, 0, runErr
		}
		if r := local / remote; r > ratio {
			ratio, remoteNs = r, remote
		}
	}
	return ratio, remoteNs, nil
}
