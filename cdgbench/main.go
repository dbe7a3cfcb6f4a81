// Command cdgbench is the repository's benchmark: it runs one workload
// for a fixed time, checks every output against a reference digest, and
// prints the workload's metrics, the last line being one JSON object.
//
//	bash cdgbench/run.sh --workload fig4_l3cache --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	fig4_l3cache      figures.Fig4 flows, locally through core and sim
//	fig3_iounit_farm  figures.Fig3 flows with remote lanes to two
//	                  in-process farm servers over the loopback transport
//	campaigns         closed-loop clients submitting small campaigns to an
//	                  in-process service on the real disk
//
// --trace 0 reports the end-to-end metrics. --trace 1 first runs one
// untraced cycle, then traced cycles whose timing wrappers (around
// duv.DUV.Simulate and the farm dispatcher) and the program's own
// phase spans and counters give the per-layer metrics, plus the micro
// rows that time the modules' public functions directly. Its spans are
// written as Chrome trace-event JSON under -out.
//
// Maintenance modes: --write-refs LO-HI prints the reference digests of
// seeds LO..HI as JSON for refs.json; --harvest writes each workload's
// best template of seed 1 into testdata/.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/duv"
	"repro/internal/duv/ifu"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/obs"
	"repro/internal/service"
)

var workloadNames = []string{"fig4_l3cache", "fig3_iounit_farm", "campaigns"}

// refsJSON holds the reference digests per workload and seed, produced
// by --write-refs; seeds missing here get theirs computed after the
// measurement by the same reference path.
//
//go:embed refs.json
var refsJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: all, "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	secs := fs.Int("seconds", 25, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	data := fs.String("data", "cdgbench/data", "campaigns data root (real disk, not tmpfs)")
	out := fs.String("out", ".bench_build", "directory for trace files")
	refDigest := fs.String("ref-digest", "", "replace the first operation's reference digest (to exercise the correctness gate)")
	writeRefs := fs.String("write-refs", "", "print reference digests for seeds LO-HI and exit")
	harvest := fs.Bool("harvest", false, "write the harvested templates into testdata/ and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs := runtime.GOMAXPROCS(0)
	if *harvest {
		return report(stderr, harvestTemplates(procs))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !known(*workload) {
		fmt.Fprintf(stderr, "cdgbench: unknown workload %q (want all or one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *writeRefs != "" {
		if len(names) != 1 {
			fmt.Fprintln(stderr, "cdgbench: -write-refs takes one workload")
			return 2
		}
		return report(stderr, printRefs(stdout, *workload, *writeRefs, procs))
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "cdgbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	// With -workload all, the workloads run one after another in this
	// process and the metric names carry a "<workload>/" prefix.
	metrics := map[string]metric{}
	attempted, failed := 0, 0
	for _, w := range names {
		b := &bench{
			workload: w, seed: *seed, window: time.Duration(*secs) * time.Second,
			traced: *trace == 1, procs: procs, out: *out, stdout: stdout,
		}
		m, err := b.run(*data, *refDigest)
		if err != nil {
			fmt.Fprintln(stderr, "cdgbench:", err)
			return 1
		}
		for _, f := range b.failures {
			fmt.Fprintln(stderr, "cdgbench: FAIL", f)
		}
		attempted += b.attempted
		failed += b.failed
		for name, v := range m {
			if len(names) > 1 {
				name = w + "/" + name
			}
			metrics[name] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cdgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

func report(stderr io.Writer, err error) int {
	if err != nil {
		fmt.Fprintln(stderr, "cdgbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cycle is one measured pass over the workload's operations.
type cycle struct {
	wall, cpu time.Duration
	sims      uint64
	outcomes  []outcome
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	procs    int
	out      string
	stdout   io.Writer
	dataRoot string
	refs     []string // reference digest per operation of a cycle

	// refDigest, when set, replaces the first operation's reference.
	refDigest string
	// results holds every operation's report digest (or error) in run
	// order; verify checks them once the references are known.
	results []result

	attempted, failed int
	failures          []string

	setup []float64
	fleet *fleet
	svc   *service.Service
}

// run measures the workload in a fresh data root, removed afterwards.
func (b *bench) run(data, refDigest string) (map[string]metric, error) {
	if err := b.prepare(data, refDigest); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dataRoot)
	return b.measure()
}

// prepare creates the run's data root, stamps the run and loads or
// computes the reference digests.
func (b *bench) prepare(data, refDigest string) error {
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(data, fmt.Sprintf("%s-%d-", b.workload, b.seed))
	if err != nil {
		return err
	}
	b.dataRoot = root
	fsType := filesystem(root)
	b.printf("stamp nproc=%d gomaxprocs=%d go=%s commit=%s data_fs=%s seed=%d seconds=%.0f trace=%v\n",
		runtime.NumCPU(), b.procs, runtime.Version(), commit(), fsType, b.seed, b.window.Seconds(), b.traced)
	if fsType == "tmpfs" || fsType == "ramfs" {
		b.printf("stamp WARNING: the data root is on %s; fsync is free there, so journal, atomicfile and campaigns figures are not meaningful\n", fsType)
	}
	var table map[string]map[string][]string
	if err := json.Unmarshal(refsJSON, &table); err != nil {
		return fmt.Errorf("refs.json: %w", err)
	}
	if refs := table[b.workload][strconv.FormatUint(b.seed, 10)]; len(refs) == b.ops() {
		b.refs = refs
	}
	b.refDigest = refDigest
	return nil
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.stdout, format, args...) }

func (b *bench) ops() int {
	switch b.workload {
	case "fig4_l3cache":
		return fig4Ops
	case "fig3_iounit_farm":
		return fig3Ops
	}
	return campaignOps
}

// setUp builds the workload's fixtures setupRepeats times, recording
// each time, and keeps the last set.
func (b *bench) setUp() error {
	for i := 0; i < setupRepeats; i++ {
		b.tearDown()
		start := time.Now()
		switch b.workload {
		case "fig4_l3cache":
			l3cache.New()
		case "fig3_iounit_farm":
			iounit.New()
			fl, err := newFleet(max(1, b.procs/2))
			if err != nil {
				return err
			}
			b.fleet = fl
		case "campaigns":
			for _, name := range []string{iounit.UnitName, l3cache.UnitName, ifu.UnitName} {
				if _, err := duv.New(name); err != nil {
					return err
				}
			}
			svc, err := newService(b.dataRoot, nil)
			if err != nil {
				return err
			}
			b.svc = svc
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
	}
	return nil
}

func (b *bench) tearDown() {
	if b.fleet != nil {
		b.fleet.close()
		b.fleet = nil
	}
	if b.svc != nil {
		b.svc.Close()
		b.svc = nil
	}
}

// runCycle runs the workload's operations once, traced when tr is set.
func (b *bench) runCycle(tr *tracer, rec *obs.Recorder) cycle {
	cpu0 := cpuTime()
	start := time.Now()
	var outs []outcome
	switch b.workload {
	case "fig4_l3cache":
		outs = b.figCycle(fig4Flow, fig4Ops, tr, rec)
	case "fig3_iounit_farm":
		outs = b.figCycle(fig3Flow, fig3Ops, tr, rec)
	default:
		outs = runCampaigns(b.svc, b.seed, tr)
	}
	c := cycle{wall: time.Since(start), cpu: cpuTime() - cpu0, outcomes: outs}
	for _, o := range outs {
		c.sims += o.sims
	}
	return c
}

func (b *bench) figCycle(f figFlow, ops int, tr *tracer, rec *obs.Recorder) []outcome {
	out := make([]outcome, ops)
	for j := range out {
		out[j] = b.figOp(f, j, tr, rec)
	}
	return out
}

// figOp runs operation j of a figure workload, traced when tr is set.
func (b *bench) figOp(f figFlow, j int, tr *tracer, rec *obs.Recorder) outcome {
	opts := f.options(subSeed(b.seed, j), b.procs)
	if b.fleet != nil {
		opts.Runner, opts.RunnerLanes = b.fleet.runner, b.fleet.disp.Lanes()
	}
	start, cpu0 := time.Now(), cpuTime()
	var o outcome
	if tr == nil {
		o.reports, o.sims, o.err = f.run(opts)
	} else {
		opts.Obs = rec
		s0 := tr.now()
		o.reports, o.sims, o.err = f.runTraced(opts, timedDUV{DUV: f.unit(), tr: tr})
		tr.add(fmt.Sprintf("fig%d.op%d", f.fig, j), layerBench, s0, tr.now())
	}
	o.latency, o.cpu = time.Since(start), cpuTime()-cpu0
	return o
}

// result is one operation's report digest, or why it has none.
type result struct {
	op     int
	digest string
	err    error
}

// record keeps a cycle's report digests for verify.
func (b *bench) record(c cycle) {
	for j, o := range c.outcomes {
		r := result{op: j, err: o.err}
		if r.err == nil {
			r.digest, r.err = digest(o.reports)
		}
		b.results = append(b.results, r)
	}
}

// verify is the correctness gate: every operation's report digest must
// equal its reference. References missing from refs.json are computed
// here, after the measurement, so their cost and memory stay out of the
// measured figures.
func (b *bench) verify() error {
	if b.refs == nil {
		start := time.Now()
		refs, err := reference(b.workload, b.seed, b.procs)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		b.refs = refs
		b.printf("stamp refs=computed in %.1fs\n", time.Since(start).Seconds())
	} else {
		b.printf("stamp refs=refs.json\n")
	}
	if b.refDigest != "" {
		b.refs[0] = b.refDigest
	}
	for _, r := range b.results {
		b.attempted++
		err := r.err
		if err == nil && r.digest != b.refs[r.op] {
			err = fmt.Errorf("report digest %s, reference %s", r.digest, b.refs[r.op])
		}
		if err != nil {
			b.failed++
			b.failures = append(b.failures, fmt.Sprintf("%s op %d: %v", b.workload, r.op, err))
		}
	}
	return nil
}

// measure sets up, runs cycles for the run's window and returns the
// run's metrics.
func (b *bench) measure() (map[string]metric, error) {
	if err := b.setUp(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.tearDown()
	if err := b.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if b.fleet != nil {
		b.fleet.runner.ok.Store(0) // the remote-chunk check covers measured cycles only
	}
	start := time.Now()
	var plain, traced []cycle
	var tr *tracer
	var rec *obs.Recorder
	var obsEpoch time.Time
	for len(plain) == 0 || (b.traced && len(traced) == 0) || time.Since(start) < b.window {
		if b.traced && len(plain) == 1 && tr == nil {
			// Traced cycles follow the one untraced cycle.
			tr = newTracer(fmt.Sprintf("%s-seed%d", b.workload, b.seed))
			obsEpoch = time.Now()
			rec = &obs.Recorder{Metrics: obs.NewRegistry(), Trace: obs.NewTracer()}
			if err := b.traceFixtures(tr, rec); err != nil {
				return nil, err
			}
		}
		c := b.runCycle(tr, rec)
		b.printf("cycle %s traced=%v wall=%.3fs sims=%d cpu=%.3fs\n", b.workload, tr != nil, c.wall.Seconds(), c.sims, c.cpu.Seconds())
		b.record(c)
		if tr == nil {
			plain = append(plain, c)
		} else {
			traced = append(traced, c)
		}
	}
	rss := peakRSS()
	var m map[string]metric
	if b.traced {
		tr.addObs(obsEpoch, rec.Trace.Events())
		var err error
		if m, err = b.perLayer(plain, traced, tr, rec); err != nil {
			return nil, err
		}
		path := filepath.Join(b.out, "trace", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		b.printf("trace %s\n", path)
	} else {
		m = b.endToEnd(plain, rss)
	}
	if err := b.verify(); err != nil {
		return nil, err
	}
	if b.fleet != nil && b.fleet.runner.ok.Load() == 0 {
		b.attempted++
		b.failed++
		b.failures = append(b.failures, errNoRemote.Error())
	}
	b.summary(plain)
	return m, nil
}

// warmUp runs the cycle's first operation once, unmeasured, so the
// first measured cycle does not pay for the process's lazy start-up
// (heap growth, first-use code and data).
func (b *bench) warmUp() error {
	switch b.workload {
	case "fig4_l3cache":
		return b.figOp(fig4Flow, 0, nil, nil).err
	case "fig3_iounit_farm":
		return b.figOp(fig3Flow, 0, nil, nil).err
	}
	return runCampaign(b.svc, campaignSpec(b.seed, 0)).err
}

// traceFixtures points the fixtures at the tracer: the farm wrapper
// starts recording spans, and campaigns move to a service instrumented
// with rec (a service's recorder is fixed when it is created).
func (b *bench) traceFixtures(tr *tracer, rec *obs.Recorder) error {
	if b.fleet != nil {
		b.fleet.runner.tr.Store(tr)
	}
	if b.svc != nil {
		b.svc.Close()
		svc, err := newService(b.dataRoot, rec)
		if err != nil {
			return err
		}
		b.svc = svc
	}
	return nil
}

// summary prints the human-readable lines shared by both modes.
func (b *bench) summary(plain []cycle) {
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	b.printf("result %s attempted=%d failed=%d error_rate=%g cycles=%d ops_per_cycle=%d\n",
		b.workload, b.attempted, b.failed, errRate, len(plain), b.ops())
}

// endToEnd derives the end-to-end metrics from the untraced cycles.
func (b *bench) endToEnd(cs []cycle, rss float64) map[string]metric {
	wall, cpu := b.cycleCost(cs)
	sims := float64(cs[0].sims) // every cycle simulates the same instances
	var lat []float64
	for _, c := range cs {
		for _, o := range c.outcomes {
			lat = append(lat, o.latency.Seconds())
		}
	}
	p50 := median(lat)
	tailV, tailP := tail(lat)
	b.printf("latency %s samples=%d p50=%gs tail=p%d %gs\n", b.workload, len(lat), p50, tailP, tailV)
	b.printf("quality %s target_hit_rate=%g\n", b.workload, targetHitRate(cs[0]))
	m := map[string]metric{
		"setup_s":         {median(b.setup), "s"},
		"wall_s":          {wall.Seconds(), "s"},
		"sims_per_s":      {sims / wall.Seconds(), "1/s"},
		"cpu_us_per_sim":  {float64(cpu.Nanoseconds()) / 1e3 / sims, "us"},
		"peak_rss_mb":     {rss, "MB"},
		"campaigns_per_s": {float64(b.ops()) / wall.Seconds(), "1/s"},
		"latency_p50_s":   {p50, "s"},
		"latency_tail_s":  {tailV, "s"},
	}
	b.printMetrics(m)
	return m
}

// cycleCost is the wall and CPU time of one cycle. A figure workload
// runs its operations one after another, so it sums each operation's
// median over the run's cycles: a burst of load from outside the
// process then slows one sample of an operation, not the result.
// Campaigns overlap, campaignClients at a time, so there the wall is
// that sum divided by the clients and the CPU the median over cycles:
// process CPU time cannot be split between concurrent campaigns.
func (b *bench) cycleCost(cs []cycle) (wall, cpu time.Duration) {
	if b.workload == "campaigns" {
		var cpus []float64
		for _, c := range cs {
			cpus = append(cpus, float64(c.cpu))
		}
		for j := range cs[0].outcomes {
			var walls []float64
			for _, c := range cs {
				walls = append(walls, float64(c.outcomes[j].latency))
			}
			wall += time.Duration(median(walls))
		}
		return wall / campaignClients, time.Duration(median(cpus))
	}
	for j := range cs[0].outcomes {
		var walls, cpus []float64
		for _, c := range cs {
			walls = append(walls, float64(c.outcomes[j].latency))
			cpus = append(cpus, float64(c.outcomes[j].cpu))
		}
		wall += time.Duration(median(walls))
		cpu += time.Duration(median(cpus))
	}
	return wall, cpu
}

func (b *bench) printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.printf("metric %s %s %g %s\n", b.workload, n, m[n].Value, m[n].Unit)
	}
}

// targetHitRate is the mean, over a cycle's operations, of the target
// events' hit rate in the best phase. It depends only on the seed.
func targetHitRate(c cycle) float64 {
	var hits []float64
	for _, o := range c.outcomes {
		hits = append(hits, hitRate(o.reports))
	}
	return mean(hits)
}

// phases are the flow phases whose time core.phase_s.* reports.
var phases = []string{"corpus", "neighbors", "tac", "skeleton", "sampling", "optimization", "harvest"}

// perLayer derives the per-layer metrics of a traced run.
func (b *bench) perLayer(plain, traced []cycle, tr *tracer, rec *obs.Recorder) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	counter := func(name string) float64 { return float64(rec.Counter(name).Value()) }
	nc := float64(len(traced))
	var ops []outcome
	var wall time.Duration
	var walls []float64
	for _, c := range traced {
		ops = append(ops, c.outcomes...)
		wall += c.wall
		walls = append(walls, c.wall.Seconds())
	}
	nops := float64(len(ops))

	// duv: the wrapper's Simulate spans; campaigns run their units
	// inside the service, so there the scheduler's worker counters and
	// per-instance histogram stand in.
	if sims := tr.durations(layerDUV, ""); len(sims) > 0 {
		busy := tr.busy(layerDUV)
		set("duv.simulate_us", "us", float64(busy.Nanoseconds())/1e3/float64(len(sims)))
		set("duv.busy_share", "ratio", busy.Seconds()/(float64(b.procs)*wall.Seconds()))
	} else {
		h := rec.Histogram("sim.sim_ns", obs.LatencyBounds())
		simUs := 0.0
		if h.Count() > 0 {
			simUs = float64(h.Sum()) / float64(h.Count()) / 1e3
		}
		var busy float64
		for w := 0; w < b.procs; w++ {
			busy += counter(fmt.Sprintf("sim.worker.%02d.busy_ns", w))
		}
		set("duv.simulate_us", "us", simUs)
		set("duv.busy_share", "ratio", busy/1e9/(float64(b.procs)*wall.Seconds()))
	}

	// sim and opt counters, per cycle.
	chunks := counter("sim.chunks_completed")
	set("sim.chunks", "count", chunks/nc)
	set("sim.remote_fallbacks", "count", counter("sim.remote_fallbacks")/nc)
	hitsC, misses := counter("sim.plan_cache.hits"), counter("sim.plan_cache.misses")
	ratio := 0.0
	if hitsC+misses > 0 {
		ratio = hitsC / (hitsC + misses)
	}
	set("sim.plan_cache_hit_ratio", "ratio", ratio)
	set("opt.evals", "count", counter("opt.evals")/nc)
	set("target_hit_rate", "ratio", targetHitRate(plain[0]))

	// farm: the dispatcher wrapper's exchange spans.
	var rpc []float64
	for _, d := range tr.durations(layerFarm, "") {
		rpc = append(rpc, float64(d.Nanoseconds())/1e6)
	}
	rpcTail, rpcP := tail(rpc)
	set("farm.rpc_ms_p50", "ms", median(rpc))
	set("farm.rpc_ms_tail", "ms", rpcTail)
	share := 0.0
	if chunks > 0 {
		share = counter("sim.chunks_remote") / chunks
	}
	set("farm.remote_share", "ratio", share)
	errs := 0.0
	if b.fleet != nil {
		errs = float64(b.fleet.runner.errors.Load())
	}
	set("farm.chunk_errors", "count", errs)
	b.printf("farm %s rpc_samples=%d tail=p%d\n", b.workload, len(rpc), rpcP)

	// core: phase time per operation.
	for _, p := range phases {
		var sum time.Duration
		for _, d := range tr.durations(layerCore, p) {
			sum += d
		}
		set("core.phase_s."+p, "s", sum.Seconds()/nops)
	}

	// journal and service (campaigns only).
	var submit, queued, ran []float64
	for _, o := range ops {
		submit = append(submit, float64(o.submit.Nanoseconds())/1e3)
		queued = append(queued, o.queued.Seconds())
		ran = append(ran, o.ran.Seconds())
	}
	appends := 0.0
	if b.workload == "campaigns" {
		appends = counter("journal.appends") / nops
	}
	set("journal.appends_per_campaign", "count", appends)
	set("service.submit_us", "us", median(submit))
	set("service.queue_wait_s", "s", median(queued))
	set("service.run_s", "s", median(ran))

	// Tracing overhead and self time per layer.
	set("trace.overhead_s", "s", median(walls)-plain[0].wall.Seconds())
	tr.link()
	self := tr.selfTime()
	for _, l := range []string{layerBench, layerCore, layerFarm, layerDUV} {
		set("self_s."+l, "s", self[l].Seconds()/nc)
	}

	rows, err := micro(b.stdout, b.dataRoot)
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	for name, v := range rows {
		m[name] = v
	}
	b.printMetrics(m)
	return m, nil
}

// ---- run stamp helpers ----

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// filesystem names the filesystem type holding path.
func filesystem(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// commit is the git commit of the checkout in the working directory,
// or "unknown" when it is not a git repository.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// ---- maintenance modes ----

// printRefs prints {"<workload>": {"<seed>": [digests]}} for the seeds
// in spec ("LO-HI").
func printRefs(w io.Writer, workload, spec string, procs int) error {
	lo, hi, ok := strings.Cut(spec, "-")
	from, err1 := strconv.ParseUint(lo, 10, 64)
	to, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("-write-refs wants LO-HI, got %q", spec)
	}
	seeds := map[string][]string{}
	for s := from; s <= to; s++ {
		refs, err := reference(workload, s, procs)
		if err != nil {
			return err
		}
		seeds[strconv.FormatUint(s, 10)] = refs
	}
	data, err := json.Marshal(map[string]any{workload: seeds})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// harvestTemplates writes the best template of seed 1's first operation
// of each unit into testdata/: l3cache from fig4_l3cache, iounit from
// fig3_iounit_farm's local reference, ifu from the campaigns cross.
func harvestTemplates(procs int) error {
	write := func(unit string, reports []*service.ReportJSON, err error) error {
		if err != nil {
			return err
		}
		best := reports[len(reports)-1].BestTemplate
		if best == "" {
			return errors.New("harvest: no best template for " + unit)
		}
		return os.WriteFile(filepath.Join("testdata", unit+".tmpl"), []byte(best), 0o644)
	}
	reports, _, err := fig4Flow.run(fig4Flow.options(subSeed(1, 0), procs))
	if err := write(l3cache.UnitName, reports, err); err != nil {
		return err
	}
	reports, _, err = fig3Flow.run(fig3Flow.options(subSeed(1, 0), procs))
	if err := write(iounit.UnitName, reports, err); err != nil {
		return err
	}
	reports, err = campaignReference(campaignSpec(1, 2))
	return write(ifu.UnitName, reports, err)
}
