package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/duv/ifu"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/farm"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/service"
)

// Workload sizes. A cycle is a fixed list of operations derived from
// the seed; a run repeats whole cycles until its time is up. Each
// operation has its own sub-seed, so a cycle averages over many inputs
// and one seed's costly templates do not set the whole run's figures.
const (
	// fig4Ops figure-4 flows per cycle, each one refinement round at
	// fig4Scale of the paper's corpus and best-phase budgets, with the
	// optimizer cut to fig4Iterations iterations.
	fig4Ops        = 24
	fig4Scale      = 0.001
	fig4Iterations = 3

	// fig3Ops figure-3 flows per cycle, likewise.
	fig3Ops        = 6
	fig3Scale      = 0.01
	fig3Iterations = 7

	// campaignOps campaigns per cycle, rotating over an iounit family,
	// an l3cache family and an ifu cross; campaignClients submit them.
	campaignOps     = 24
	campaignClients = 2

	// setupRepeats is how often a run builds its fixtures; setup_s is
	// the median.
	setupRepeats = 25
)

// outcome is one finished operation.
type outcome struct {
	reports []*service.ReportJSON
	sims    uint64
	latency time.Duration
	cpu     time.Duration // process CPU time (figure workloads only)
	err     error

	// Campaign timestamps (campaigns only).
	submit, queued, ran time.Duration
}

// subSeed derives operation j's seed from the run seed (splitmix64),
// never 0, which the flow reads as "default seed".
func subSeed(seed uint64, j int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(j+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// digest is the SHA-256 of the reports' canonical JSON bytes.
func digest(reports []*service.ReportJSON) (string, error) {
	data, err := json.Marshal(reports)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// hitRate is the mean hit rate of the target events in the last
// report's best phase.
func hitRate(reports []*service.ReportJSON) float64 {
	if len(reports) == 0 {
		return 0
	}
	r := reports[len(reports)-1]
	for _, p := range r.Phases {
		if p.Name != "best" || p.Sims == 0 || len(p.TargetHits) == 0 {
			continue
		}
		var sum float64
		for _, h := range p.TargetHits {
			sum += float64(h) / float64(p.Sims)
		}
		return sum / float64(len(p.TargetHits))
	}
	return 0
}

func reportsJSON(rs []*core.Report, m *coverage.Model) []*service.ReportJSON {
	out := make([]*service.ReportJSON, len(rs))
	for i, r := range rs {
		out[i] = service.NewReportJSON(r, m)
	}
	return out
}

// ---- figure workloads ----

// figFlow describes one figure workload's flow.
type figFlow struct {
	fig        int
	unit       func() duv.DUV
	family     string
	scale      float64
	iterations int
}

var (
	fig4Flow = figFlow{fig: 4, unit: func() duv.DUV { return l3cache.New() }, family: l3cache.FamilyName, scale: fig4Scale, iterations: fig4Iterations}
	fig3Flow = figFlow{fig: 3, unit: func() duv.DUV { return iounit.New() }, family: iounit.FamilyName, scale: fig3Scale, iterations: fig3Iterations}
)

func (f figFlow) options(seed uint64, workers int) figures.Options {
	return figures.Options{
		Scale:        f.scale,
		Seed:         seed,
		Rounds:       1,
		Workers:      workers,
		EngineParams: json.RawMessage(fmt.Sprintf(`{"iterations":%d}`, f.iterations)),
	}
}

// run executes the flow through the figures package, as cmd/repro does.
func (f figFlow) run(opts figures.Options) ([]*service.ReportJSON, uint64, error) {
	var res *figures.Result
	var err error
	if f.fig == 4 {
		res, err = figures.Fig4(opts)
	} else {
		res, err = figures.Fig3(opts)
	}
	if err != nil {
		return nil, 0, err
	}
	return reportsJSON(res.Reports, f.unit().Model()), res.Sims, nil
}

// runTraced executes the same flow through core with a timing wrapper
// around the unit. It mirrors the figures package's configuration for
// the flow; the correctness gate checks that its reports match.
func (f figFlow) runTraced(opts figures.Options, unit duv.DUV) ([]*service.ReportJSON, uint64, error) {
	var corpus, samples, best int
	var cfg core.Config
	n := len(unit.BaseTemplates())
	if f.fig == 4 {
		corpus, samples, best = scaled(1000000, opts.Scale)/n, scaled(210, opts.Scale*10), scaled(15000, opts.Scale*10)
		cfg = core.Config{TopTemplates: 2, Subranges: 4, SampleSims: 100, OptIterations: 25, OptDirections: 11, OptSims: 100}
	} else {
		corpus, samples, best = scaled(669000, opts.Scale)/n, scaled(200, opts.Scale*10), scaled(10000, opts.Scale*10)
		cfg = core.Config{TopTemplates: 2, Subranges: 4, SampleSims: 100, OptIterations: 7, OptDirections: 19, OptSims: 200}
	}
	cfg.Seed, cfg.Workers, cfg.Obs = opts.Seed, opts.Workers, opts.Obs
	cfg.Runner, cfg.RunnerLanes, cfg.EngineParams = opts.Runner, opts.RunnerLanes, opts.EngineParams
	cfg.CorpusSimsPerTemplate, cfg.SampleTemplates, cfg.BestSims = corpus, samples, best
	flow, err := core.New(unit, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer flow.Close()
	reports, err := flow.RunFamilyRefined(context.Background(), f.family, 0.4, opts.Rounds)
	if err != nil {
		return nil, 0, err
	}
	return reportsJSON(reports, unit.Model()), flow.Env().Simulations(), nil
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// fleet is the in-process farm of the fig3_iounit_farm workload: two
// farm servers behind a dispatcher over the loopback transport.
type fleet struct {
	servers []*farm.Server
	disp    *farm.Dispatcher
	runner  *timedRunner
}

func newFleet(capacity int) (*fleet, error) {
	lb := farm.NewLoopback()
	fl := &fleet{}
	addrs := []string{"bench-w0", "bench-w1"}
	for _, addr := range addrs {
		srv := farm.NewServer(farm.ServerOptions{Capacity: capacity})
		fl.servers = append(fl.servers, srv)
		lb.Add(addr, srv, farm.Faults{})
	}
	fl.disp = farm.New(addrs, farm.Options{Dial: lb.Dial})
	fl.runner = &timedRunner{inner: fl.disp}
	if err := fl.disp.WaitReady(5 * time.Second); err != nil {
		fl.close()
		return nil, fmt.Errorf("farm: %w", err)
	}
	return fl, nil
}

func (fl *fleet) close() {
	fl.disp.Close()
	for _, s := range fl.servers {
		s.Shutdown()
	}
}

// ---- campaigns workload ----

// campaignSpec is operation j of a campaigns cycle: a small, fully
// deterministic campaign with knowledge off, so its reports do not
// depend on which campaigns ran before it.
func campaignSpec(seed uint64, j int) service.Spec {
	spec := service.Spec{
		Seed:   subSeed(seed, j),
		Tenant: "bench",
		Config: service.SpecConfig{
			CorpusSims: 120, TopTemplates: 2, Subranges: 2, SampleTemplates: 6, SampleSims: 24,
			OptIterations: 3, OptDirections: 3, OptSims: 30, BestSims: 180, Workers: 1,
		},
	}
	switch j % 3 {
	case 0:
		spec.Unit, spec.Family, spec.Decay = iounit.UnitName, iounit.FamilyName, 0.4
	case 1:
		spec.Unit, spec.Family, spec.Decay = l3cache.UnitName, l3cache.FamilyName, 0.4
	default:
		spec.Unit, spec.Cross = ifu.UnitName, ifu.CrossName
	}
	return spec
}

// campaignReference runs a campaign spec straight through core, with no
// service, journal or lease: the reference its service run must match.
func campaignReference(spec service.Spec) ([]*service.ReportJSON, error) {
	unit, err := duv.New(spec.Unit)
	if err != nil {
		return nil, err
	}
	c := spec.Config
	flow, err := core.New(unit, core.Config{
		Seed: spec.Seed, Workers: c.Workers, CorpusSimsPerTemplate: c.CorpusSims,
		TopTemplates: c.TopTemplates, Subranges: c.Subranges, SampleTemplates: c.SampleTemplates,
		SampleSims: c.SampleSims, OptIterations: c.OptIterations, OptDirections: c.OptDirections,
		OptSims: c.OptSims, BestSims: c.BestSims,
	})
	if err != nil {
		return nil, err
	}
	defer flow.Close()
	var reports []*core.Report
	if spec.Family != "" {
		reports, err = flow.RunFamilyRefined(context.Background(), spec.Family, spec.Decay, 1)
	} else {
		var r *core.Report
		r, err = flow.RunCross(context.Background(), spec.Cross)
		reports = []*core.Report{r}
	}
	if err != nil {
		return nil, err
	}
	return reportsJSON(reports, unit.Model()), nil
}

// newService opens a campaign service on a fresh directory under root.
func newService(root string, rec *obs.Recorder) (*service.Service, error) {
	dir, err := os.MkdirTemp(root, "svc-")
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{
		DataDir: dir, Owner: "cdgbench", MaxRunning: campaignClients,
		MaxQueue: 2 * campaignClients, Rec: rec,
	})
}

// runCampaigns runs one campaigns cycle: campaignClients closed-loop
// clients each take the next spec, Submit it and Wait for it. With a
// tracer, each campaign becomes a span from Submit to done.
func runCampaigns(svc *service.Service, seed uint64, tr *tracer) []outcome {
	out := make([]outcome, campaignOps)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < campaignClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= campaignOps {
					return
				}
				if tr == nil {
					out[j] = runCampaign(svc, campaignSpec(seed, j))
					continue
				}
				start := tr.now()
				out[j] = runCampaign(svc, campaignSpec(seed, j))
				tr.add(fmt.Sprintf("campaign.op%d", j), layerBench, start, tr.now())
			}
		}()
	}
	wg.Wait()
	return out
}

func runCampaign(svc *service.Service, spec service.Spec) outcome {
	start := time.Now()
	id, err := svc.Submit(spec)
	submitted := time.Since(start)
	if err != nil {
		return outcome{err: err}
	}
	svc.Wait(context.Background(), id)
	o := outcome{latency: time.Since(start), submit: submitted}
	st := svc.Get(id)
	if st == nil || st.State != service.StateDone {
		state, msg := "unknown", ""
		if st != nil {
			state, msg = st.State, st.Error
		}
		o.err = fmt.Errorf("campaign %s ended %s %s", id, state, msg)
		return o
	}
	o.reports = st.Reports
	for _, r := range st.Reports {
		o.sims += r.TotalSims
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		o.queued = st.StartedAt.Sub(st.SubmittedAt)
		o.ran = st.FinishedAt.Sub(*st.StartedAt)
	}
	return o
}

// ---- references ----

// reference computes the reference digests of a workload's cycle by
// its reference path: fig4 with one simulation worker (worker-count
// bit identity), fig3 on the local scheduler with no farm (farm bit
// identity), and each campaign straight through core.
func reference(workload string, seed uint64, workers int) ([]string, error) {
	var out []string
	add := func(reports []*service.ReportJSON, err error) error {
		if err != nil {
			return err
		}
		d, err := digest(reports)
		out = append(out, d)
		return err
	}
	switch workload {
	case "fig4_l3cache":
		for j := 0; j < fig4Ops; j++ {
			reports, _, err := fig4Flow.run(fig4Flow.options(subSeed(seed, j), 1))
			if err := add(reports, err); err != nil {
				return nil, err
			}
		}
	case "fig3_iounit_farm":
		for j := 0; j < fig3Ops; j++ {
			reports, _, err := fig3Flow.run(fig3Flow.options(subSeed(seed, j), workers))
			if err := add(reports, err); err != nil {
				return nil, err
			}
		}
	case "campaigns":
		for j := 0; j < campaignOps; j++ {
			if err := add(campaignReference(campaignSpec(seed, j))); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return out, nil
}

var errNoRemote = errors.New("fig3_iounit_farm: no chunk ran remotely (silent local fallback)")
