package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// freshCeiling is the rate of fresh explains per second the closed loop's
// pool is sized for, several times what two CPUs serve today; a closed loop
// that still runs the pool dry stops early and reports the rate it measured
// until then.
const freshCeiling = 12000

// plan is the phase lengths and pool sizes of one run.
type plan struct {
	capacity, latency time.Duration
	freshN, observeN  int
}

func planFor(cfg config) plan {
	sec := func(share float64) time.Duration {
		return time.Duration(share * cfg.seconds * float64(time.Second))
	}
	capShare := capacityShare
	if cfg.trace {
		capShare /= 2 // the traced run measures capacity twice: untraced and traced
	}
	p := plan{capacity: sec(capShare), latency: sec(1 - capacityShare)}
	w := cfg.w
	fresh := math.Max(freshCeiling*p.capacity.Seconds(), (1-w.hotShare)*w.explainRate*p.latency.Seconds())
	p.freshN = int(fresh) + quietFresh
	p.observeN = int(w.observeRate * p.latency.Seconds())
	return p
}

// bench is what the server lifetimes of one run share.
type bench struct {
	cfg  config
	plan plan
	in   *inputs
	ref  *reference // on the seeded context
	snap string     // the seeded snapshot every boot copies

	finalRows []feature.Labeled // the last checked lifetime's rows, in arrival order
}

func newBench(cfg config) (*bench, error) {
	pl := planFor(cfg)
	lab, err := newLabeller()
	if err != nil {
		return nil, err
	}
	in, err := buildInputs(lab, cfg.w, cfg.seed, pl.freshN, pl.observeN)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(in.schema, in.context)
	if err != nil {
		return nil, err
	}
	snap, err := writeSeedSnapshot(cfg.work, in)
	if err != nil {
		return nil, err
	}
	return &bench{cfg: cfg, plan: pl, in: in, ref: ref, snap: snap}, nil
}

// inst is the explain instance of id: the hot set, then the fresh pool.
func (s *bench) inst(id int32) feature.Labeled {
	if int(id) < len(s.in.hot) {
		return s.in.hot[id]
	}
	return s.in.fresh[int(id)-len(s.in.hot)]
}

func (s *bench) bodyOf(o op) []byte {
	if o.kind == observeOp {
		return s.in.render.body(s.in.observe[o.id])
	}
	return s.in.render.body(s.inst(o.id))
}

// latencyOps is the open-loop schedule of one server lifetime: explains at
// the workload's rate and, on mixed_write, observes beside them.
func (s *bench) latencyOps(d time.Duration, lifetime int64) ([]op, error) {
	w := s.cfg.w
	rng := rand.New(rand.NewSource(s.cfg.seed*31 + lifetime))
	fresh := int32(0)
	var err error
	explains := schedule(int(w.explainRate*d.Seconds()), w.explainRate, explainOp, func(int) int32 {
		if rng.Float64() < w.hotShare {
			return int32(rng.Intn(len(s.in.hot)))
		}
		if int(fresh) >= len(s.in.fresh) {
			err = errors.New("fresh pool smaller than the latency phase")
		}
		fresh++
		return int32(len(s.in.hot)) + fresh - 1
	})
	if err != nil || w.readOnly() {
		return explains, err
	}
	return mergeSchedules(explains, observeOps(w.observeRate, int(w.observeRate*d.Seconds()))), nil
}

// observeOps observes the first n rows of the pool in order at rate.
func observeOps(rate float64, n int) []op {
	return schedule(n, rate, observeOp, func(i int) int32 { return int32(i) })
}

// split returns the explain and observe samples of phases.
func split(phases ...*phase) (explains, observes []sample) {
	for _, p := range phases {
		if p == nil {
			continue
		}
		for _, smp := range p.samples {
			if smp.kind == explainOp {
				explains = append(explains, smp)
			} else {
				observes = append(observes, smp)
			}
		}
	}
	return explains, observes
}

// stage names what one server lifetime measures.
type stage int

const (
	bootOnly stage = iota // set-up time alone
	capacityStage
	latencyStage
)

// serve runs one stage against a freshly booted server at base whose state
// is in dir, then checks its writes once the server is quiet. It returns
// the stage's phase (nil for bootOnly). cpu, when not nil, reads the
// server's CPU time; the capacity phase then records it per window.
func (s *bench) serve(ctx context.Context, rep *report, st stage, n int64, base, dir string, cpu func() (float64, error)) (*phase, []int, error) {
	t := &target{addr: strings.TrimPrefix(base, "http://"), bodyOf: s.bodyOf}
	var p *phase
	var err error
	switch st {
	case capacityStage:
		p, err = s.capacity(ctx, rep, t, base, n, cpu)
	case latencyStage:
		p, err = s.latency(ctx, rep, t, base, n)
	}
	if err != nil {
		return nil, nil, err
	}
	_, observes := split(p)
	sizes, err := s.checkWrites(rep, t, dir, observes, p)
	return p, sizes, err
}

// capacity runs the closed-loop phase: capacityClients clients per CPU,
// each sending its next explain when the last is answered. No workload
// writes during it: on mixed_write every observe holds the write lock
// across an fsync, so the disk's latency, not the server, would set a
// closed loop's rate; writes are measured by the open-loop latency phase.
// Every explain of the phase is therefore checked against the reference on
// the seeded context.
func (s *bench) capacity(ctx context.Context, rep *report, t *target, base string, n int64, cpu func() (float64, error)) (*phase, error) {
	before, err := readCacheStats(ctx, base)
	if err != nil {
		return nil, err
	}
	clients := capacityClients * s.cfg.nproc
	pk := newPicker(s.cfg.seed*31+n, clients, s.cfg.w.hotShare, len(s.in.hot), len(s.in.fresh))
	var server, gen []float64
	var cpuErr error
	var probe func()
	if cpu != nil {
		probe = func() {
			c, err := cpu()
			g, err2 := ownCPUSeconds()
			server, gen, cpuErr = append(server, c), append(gen, g), errors.Join(cpuErr, err, err2)
		}
	}
	p, err := t.closedLoop(clients, s.plan.capacity, pk.next, probe)
	if err = errors.Join(err, cpuErr); err != nil {
		return nil, err
	}
	p.serverCPU, p.genCPU = server, gen
	p.name = fmt.Sprintf("capacity-%d", n)
	rep.phases = append(rep.phases, p)
	after, err := readCacheStats(ctx, base)
	if err != nil {
		return nil, err
	}
	if err := reconcile(p, before, after); err != nil {
		rep.problem("%v", err)
	}
	return p, nil
}

// latency runs the open-loop phase: explains, and on mixed_write observes,
// sent at fixed rates over nproc connections.
func (s *bench) latency(ctx context.Context, rep *report, t *target, base string, n int64) (*phase, error) {
	ops, err := s.latencyOps(s.plan.latency, n)
	if err != nil {
		return nil, err
	}
	before, err := readCacheStats(ctx, base)
	if err != nil {
		return nil, err
	}
	p, err := t.openLoop(s.cfg.nproc, ops)
	if err != nil {
		return nil, err
	}
	p.name = fmt.Sprintf("latency-%d", n)
	rep.phases = append(rep.phases, p)
	after, err := readCacheStats(ctx, base)
	if err != nil {
		return nil, err
	}
	if err := reconcile(p, before, after); err != nil {
		rep.problem("%v", err)
	}
	return p, nil
}

// checkWrites verifies a server lifetime once it has gone quiet:
// acknowledged ⇔ logged against its observation log and, when explains
// (main) ran beside the writes, each of them well-formed and a sample of
// explains byte-identical to the reference on the final context. It returns
// the key sizes of the sample's answers.
func (s *bench) checkWrites(rep *report, t *target, dir string, observes []sample, main *phase) ([]int, error) {
	logged, err := checkLog(filepath.Join(dir, "observations.wal"), observes, s.in.observe)
	if err != nil {
		rep.problem("acknowledged ⇔ logged: %v", err)
		return nil, nil
	}
	rows := append(append([]feature.Labeled(nil), s.in.context...), logged...)
	if r := s.cfg.w.retain; r > 0 && len(rows) > r {
		rows = rows[len(rows)-r:]
	}
	s.finalRows = rows
	if s.cfg.w.readOnly() || len(logged) == 0 || main == nil {
		return nil, nil
	}
	if bad := checkWellFormed(main, s.in.schema, s.inst, len(rows)); bad > 0 {
		rep.progress("%s: %d explains malformed during writes", main.name, bad)
	}
	final, err := newReference(s.in.schema, rows)
	if err != nil {
		return nil, err
	}
	ids := make([]int32, 0, quietFresh+len(s.in.hot))
	for i := range s.in.hot {
		ids = append(ids, int32(i))
	}
	for i := 0; i < quietFresh && i < len(s.in.fresh); i++ {
		ids = append(ids, int32(len(s.in.hot)+i))
	}
	p, want, err := quietSample(t, final, s.inst, ids, s.cfg.nproc)
	if err != nil {
		return nil, err
	}
	p.name = "verify-" + main.name
	rep.phases = append(rep.phases, p)
	var sizes []int
	for _, id := range ids {
		if a := want[id]; a.status == 200 {
			sizes = append(sizes, a.keySize)
		}
	}
	return sizes, nil
}

// lateness is the generator's p99 lateness over the scheduled requests of
// phases, in ms.
func lateness(phases []*phase) (quantile, error) {
	var late []time.Duration
	for _, p := range phases {
		if p.open && !p.discarded {
			for i := range p.samples {
				late = append(late, p.samples[i].late)
			}
		}
	}
	return percentile(durationsIn(late, time.Millisecond), 99)
}

// tooLate reports whether a generator lateness breaks the run: the
// generator, not the server, then set the pace.
func tooLate(q quantile) bool { return q.value > float64(maxLate)/float64(time.Millisecond) }

// runLifetimes runs stage i on a freshly booted server through host(boot,
// i, stage). When the generator ran late in a lifetime, its phases are kept
// in the accounting but marked discarded, undo (if set) forgets what else
// it recorded, and the stage runs once more on a fresh server; a second
// late lifetime makes the run invalid.
func runLifetimes(rep *report, stages []stage, host func(boot, i int, st stage) (*phase, []int, error), undo func()) ([]*phase, []int, error) {
	var lts []*phase
	var sizes []int
	boot := 0
	for i, st := range stages {
		for attempt := 0; ; attempt++ {
			first := len(rep.phases)
			lt, sz, err := host(boot, i, st)
			boot++
			if err != nil {
				return nil, nil, err
			}
			q, err := lateness(rep.phases[first:])
			if err == nil && tooLate(q) {
				if attempt == 0 {
					rep.progress("generator late (p%.4g %.3fms > %v): lifetime discarded, running it again", q.at, q.value, maxLate)
					for _, p := range rep.phases[first:] {
						p.discarded = true
					}
					if undo != nil {
						undo()
					}
					continue
				}
				rep.invalid = fmt.Sprintf("generator lateness p%.4g = %.3fms exceeds %v twice", q.at, q.value, maxLate)
			}
			lts = append(lts, lt)
			sizes = append(sizes, sz...)
			break
		}
	}
	return lts, sizes, nil
}

// writeFree returns the phases whose server took no writes while they ran:
// every capacity phase, and the latency phase of a read-only workload.
func (s *bench) writeFree(capacity, latency *phase, more ...*phase) []*phase {
	out := append([]*phase{capacity}, more...)
	if s.cfg.w.readOnly() {
		out = append(out, latency)
	}
	return out
}

// verifyReads compares every explain of phases run on the seeded context
// with the reference and returns the key sizes of the distinct answers.
func (s *bench) verifyReads(rep *report, phases ...*phase) ([]int, error) {
	want, bad, err := verifyAgainst(s.ref, s.inst, s.cfg.nproc, phases...)
	if err != nil {
		return nil, err
	}
	if bad > 0 {
		rep.progress("%d explains differ from the reference", bad)
	}
	var sizes []int
	for _, a := range want {
		if a.status == 200 {
			sizes = append(sizes, a.keySize)
		}
	}
	return sizes, nil
}

// runServing is the untraced run: setupBoots boots of the real cceserver,
// each from a fresh copy of the seeded state with a cold cache — the first
// for set-up time alone, then one for the closed-loop capacity phase and one
// for the open-loop latency phase.
func runServing(ctx context.Context, cfg config, rep *report) error {
	t0 := time.Now()
	s, err := newBench(cfg)
	if err != nil {
		return err
	}
	rep.progress("inputs ready in %.1fs: %d context rows, %d hot, %d fresh, %d observe rows",
		time.Since(t0).Seconds(), len(s.in.context), len(s.in.hot), len(s.in.fresh), len(s.in.observe))
	var setups []float64
	var rss float64
	var stages []stage
	for len(stages) < setupBoots-2 {
		stages = append(stages, bootOnly)
	}
	stages = append(stages, capacityStage, latencyStage)
	lts, keySizes, err := runLifetimes(rep, stages, func(boot, n int, st stage) (*phase, []int, error) {
		p, d, err := bootServer(ctx, cfg.bin, cfg.w, cfg.work, s.snap, boot, len(s.in.context))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		rep.progress("boot %d healthy in %.3fs", boot, d.Seconds())
		lt, sizes, err := s.serve(ctx, rep, st, int64(n), p.base, p.dir, p.cpuSeconds)
		if err == nil {
			var mb float64
			if mb, err = p.peakRSSMB(); err == nil {
				rss = math.Max(rss, mb)
				rep.progress("boot %d peak RSS %.1f MiB", boot, mb)
			}
		}
		return lt, sizes, errors.Join(err, p.stop())
	}, nil)
	if err != nil {
		return err
	}
	capPhase, latPhase := lts[len(lts)-2], lts[len(lts)-1]
	sizes, err := s.verifyReads(rep, s.writeFree(capPhase, latPhase)...)
	if err != nil {
		return err
	}
	keySizes = append(keySizes, sizes...)
	lq, err := lateness(rep.phases)
	if err != nil {
		return err
	}

	rep.printf("end-to-end metrics (cceserver, %s):\n", cfg.w.name)
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("(median of %d boots)", len(setups)))
	rps, wins := windowedRate(capPhase.samples, s.plan.capacity)
	over := fmt.Sprintf("(median of %d %v windows; n=%d explains in %.3fs)", wins, window, len(capPhase.samples), capPhase.wall.Seconds())
	if capPhase.exhausted {
		over += " fresh pool exhausted: phase ended early"
	}
	rep.add("explain_rps", rps, "1/s", over)
	cost, wins := windowedCost(capPhase.samples, capPhase.serverCPU, s.plan.capacity)
	over = fmt.Sprintf("(median of %d %v windows; n=%d explains)", wins, window, len(capPhase.samples))
	rep.add("explain_cpu_us", cost, "us", "server CPU per verified explain "+over)
	genCost, _ := windowedCost(capPhase.samples, capPhase.genCPU, s.plan.capacity)
	rep.add("loadgen.cpu_us", genCost, "us", "generator CPU per verified explain "+over)
	rel, wins := windowedRatio(capPhase.serverCPU, capPhase.genCPU)
	rep.add("explain_cpu_rel", rel, "ratio", fmt.Sprintf("(server CPU over generator CPU, median of %d %v windows)", wins, window))
	explains, observes := split(latPhase)
	if err := rep.addWindowed("explain", byWindow(explains, s.plan.latency)); err != nil {
		return err
	}
	slo, n := sloShare(explains, sloLimit)
	rep.add("explain_slo_ok", slo, "share", fmt.Sprintf("(n=%d open-loop explains, limit %v)", n, sloLimit))
	if !cfg.w.readOnly() {
		if err := rep.addWindowed("observe", byWindow(observes, s.plan.latency)); err != nil {
			return err
		}
	}
	sum := 0
	for _, k := range keySizes {
		sum += k
	}
	rep.add("key_size_mean", ratio(float64(sum), float64(len(keySizes))), "features", fmt.Sprintf("(n=%d verified answers of distinct instances)", len(keySizes)))
	rep.add("server_peak_rss_mb", rss, "MiB", "(VmHWM, max over the boots)")
	rep.printf("  %-36s %14.6g %-8s (p%.4g, n=%d; invalid above %v)\n", "loadgen.late_p99_ms", lq.value, "ms", lq.at, lq.n, maxLate)
	return nil
}

// byWindow groups open-loop samples into the whole one-second windows of
// their due times.
func byWindow(samples []sample, span time.Duration) [][]sample {
	return windowed(samples, func(s *sample) time.Duration { return s.due }, span)
}

// addWindowed reports p50 and p99 of kind's latency from the due time as
// the median over windows of each window's percentile.
func (r *report) addWindowed(kind string, wins [][]sample) error {
	for _, p := range []float64{50, 99} {
		q, n, err := windowedPercentile(wins, p)
		if err != nil {
			return fmt.Errorf("%s latency: %w", kind, err)
		}
		r.add(fmt.Sprintf("%s_p%g_ms", kind, p), q.value, "ms", fmt.Sprintf("(p%.4g, median of %d windows, n=%d)", q.at, n, q.n))
	}
	return nil
}
