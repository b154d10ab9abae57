package main

import "time"

// workload is one traffic mix against cceserver. The rates are constants,
// never derived at run time, so two commits always face the same offered
// load. They were calibrated on a 2-vCPU x86-64 VM, cceserver and the
// benchmark sharing the CPUs, to about a quarter of the closed-loop
// capacity each workload measured there: that VM's capacity swings by up to
// 2x over minutes, and at half of it a slow spell pushes the open loop past
// saturation (cold_read's explain_p50_ms spread 1.6 over ten seeds).
type workload struct {
	name        string
	contextRows int     // rows of the seeded context snapshot the server recovers
	retain      int     // cceserver -retain; 0 keeps every row
	hotShare    float64 // share of explains drawn from the hot set; the rest are fresh, never-repeated instances
	explainRate float64 // open-loop explains per second in the latency phase
	observeRate float64 // open-loop observes per second beside the explains; 0 = read-only workload
}

var workloads = []workload{
	// The service hit path does almost all the work: 90% of explains repeat
	// one of 64 instances, so the cache answers them and core solves only
	// the fresh 10%.
	{name: "hot_read", contextRows: 20000, hotShare: 0.9, explainRate: 4000},
	// Every explain is a distinct instance over a large context: core's
	// solver and the precision/coverage scans dominate and the cache is pure
	// overhead.
	{name: "cold_read", contextRows: 200000, hotShare: 0, explainRate: 700},
	// Writes beside reads: every observe takes the write lock across the WAL
	// append and fsync and evicts a retention row, and every 256th observe
	// snapshots the 50k-row context under that lock. Observes arrive at
	// half of -snapshot-every per second, so every two seconds of the
	// latency phase hold exactly one snapshot stall. At one stall a second
	// the explains waiting on the lock were 6 to 30% of all as the host's
	// fsync and CPU speed came and went (explain_slo_ok spread 0.15 over ten
	// seeds); at one every four seconds the server's peak RSS, set by a
	// snapshot, depended on which of only four caught the heap at its
	// largest (server_peak_rss_mb spread 0.15). The explain rate is about a
	// quarter of the closed-loop capacity measured with an observe stream
	// of one snapshot a second beside it.
	{name: "mixed_write", contextRows: 50000, retain: 50000, hotShare: 0.5, explainRate: 1200, observeRate: snapshotEvery / 2},
}

const (
	hotSetSize = 64
	alpha      = 1.0

	// sloLimit is the explain latency limit: an open-loop explain meets the
	// SLO when it is answered, verified, within this long of its due time.
	sloLimit = 5 * time.Millisecond

	// quietFresh is how many fresh instances, beside the hot set, the quiet
	// sample of a mixed_write lifetime re-explains against the reference.
	quietFresh = 448

	// snapshotEvery and walSyncEvery are cceserver's defaults, passed
	// explicitly so the benchmark states the flush policy it measures.
	snapshotEvery = 256
	walSyncEvery  = 1
	panelSize     = 10

	// maxLate is the generator's own lateness (dispatch time minus due
	// time, p99) past which a run is invalid: its delays alone would then
	// blow the latency limit for 1% of requests, so the generator, not the
	// server, would have set the pace.
	maxLate = 2 * sloLimit
)

// capacityShare is the share of --seconds given to the closed-loop
// capacity phase; the open-loop latency phase gets the rest.
const capacityShare = 0.4

// setupBoots is how many times a run boots cceserver, each time from a
// fresh copy of the seeded state: setup_s is the median of their set-up
// times. All but the last two boots measure set-up time alone; the last two
// host the capacity and the latency phase.
const setupBoots = 5

// capacityClients is the closed loop's clients per CPU. With one client per
// CPU the server and the generator each sleep and wake once per request,
// and the cost of those wake-ups on a shared VM swings from run to run by a
// quarter of the hot path's CPU per explain, for both processes alike; four
// keep the server's goroutines busy, so the CPU per explain is the
// program's.
const capacityClients = 4

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) readOnly() bool { return w.observeRate <= 0 }
