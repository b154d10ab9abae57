// Command perfbench is the serving benchmark of the relative-keys service.
// One invocation runs one workload against cceserver and prints its metrics:
//
//	perfbench -cceserver BIN -work DIR --workload hot_read --seed 1 --seconds 15 --trace 0
//
// perfbench/run.sh builds both binaries from the checkout and passes
// -cceserver and -work. With --trace 0 the workload runs against the real
// cceserver binary and the end-to-end metrics are printed; with --trace 1 the
// same workload runs against service.NewServer hosted in this process, with
// timers around the Config seams (Solve, Monitor, WAL) and Handler(), and
// the per-layer metrics are printed. Either way every answer is checked, and
// the command exits non-zero when one is wrong. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	bin     string // cceserver binary
	work    string // scratch directory, removed at exit
	nproc   int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot_read, cold_read or mixed_write")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics against cceserver; 1: per-layer metrics of the traced in-process run")
	bin := fs.String("cceserver", "", "cceserver binary (--trace 0)")
	work := fs.String("work", "", "scratch directory for state and logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds <= 0 || (*trace != 0 && *trace != 1) || *work == "" || (*trace == 0 && *bin == ""):
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0|1, -work, and -cceserver for --trace 0")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin,
		work: fmt.Sprintf("%s/%s-%d-%d", *work, w.name, *seed, os.Getpid()), nproc: runtime.NumCPU()}

	// The generator shares the CPUs with the server. Spare Ps let the
	// dispatcher resume from its nanosleep without waiting for a busy P,
	// and a higher GC target keeps collection off the measured phases;
	// neither changes how much CPU the generator uses.
	runtime.GOMAXPROCS(4 * cfg.nproc)
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work) //rkvet:ignore dropperr best-effort scratch cleanup at exit

	rep := &report{cfg: cfg, out: stdout, log: stderr}
	rep.printf("perfbench %s seed=%d seconds=%g trace=%d nproc=%d\n", w.name, cfg.seed, cfg.seconds, *trace, cfg.nproc)
	start := time.Now()
	var err error
	if cfg.trace {
		err = runTraced(ctx, cfg, rep)
	} else {
		err = runServing(ctx, cfg, rep)
	}
	rep.progress("done in %.1fs", time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return rep.finish()
}

// report collects metrics and run accounting and prints them.
type report struct {
	cfg      config
	out, log io.Writer
	phases   []*phase
	problems []string // run-level verification failures
	metrics  map[string]metric
	invalid  string // why the run is invalid: the generator, not the server, set the pace
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

func (r *report) progress(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: "+format+"\n", args...)
}

func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.progress("VERIFICATION FAILED: %s", msg)
}

// wanted is the metric set this run reports in its result.
func (r *report) wanted() []metricDef {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

// add prints one metric with its unit and the count it was taken over, and
// records it in the result when it is one of the run's metrics; the others
// are printed for the reader only.
func (r *report) add(name string, value float64, unit, over string) {
	for _, m := range r.wanted() {
		if m.name == name {
			if r.metrics == nil {
				r.metrics = map[string]metric{}
			}
			r.metrics[name] = metric{Value: value, Unit: unit}
			r.printf("  %-36s %14.6g %-8s %s\n", name, value, unit, over)
			return
		}
	}
	r.printf("  %-36s %14.6g %-8s %s (printed, not gated)\n", name, value, unit, over)
}

// addQuantile records a percentile, saying which percentile it is and over
// how many samples.
func (r *report) addQuantile(name string, q quantile, unit string) {
	r.add(name, q.value, unit, fmt.Sprintf("(p%.4g, n=%d)", q.at, q.n))
}

// account prints attempted/succeeded/failed per phase and returns the
// totals, run-level problems counted as failures.
func (r *report) account() (attempted, failed int64) {
	for _, p := range r.phases {
		var f int64
		for i := range p.samples {
			if p.samples[i].failed() {
				f++
				if f <= 3 {
					r.progress("%s: failed: %v (status %d)", p.name, p.samples[i].err, p.samples[i].status)
				}
			}
		}
		n := int64(len(p.samples))
		note := ""
		if p.discarded {
			note = " (discarded: the generator ran late)"
		}
		r.printf("  phase %-22s attempted=%d succeeded=%d failed=%d wall=%.3fs%s\n", p.name, n, n-f, f, p.wall.Seconds(), note)
		attempted += n
		failed += f
	}
	return attempted, failed + int64(len(r.problems))
}

func (r *report) finish() int {
	attempted, failed := r.account()
	r.printf("  %-36s %14.6g %-8s (%d of %d operations)\n", "ops_failed_ratio", ratio(float64(failed), float64(attempted)), "share", failed, attempted)
	if r.invalid != "" {
		fmt.Fprintf(r.log, "perfbench: run invalid, not reported: %s\n", r.invalid)
		return 3
	}
	for _, m := range r.wanted() {
		if _, ok := r.metrics[m.name]; !ok {
			fmt.Fprintf(r.log, "perfbench: metric %s was not measured\n", m.name)
			return 1
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: r.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(r.log, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(r.out, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}
