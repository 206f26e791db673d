package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/explore"
)

// RunSummary renders one exploration result for the CLI: the one-line
// outcome, coverage when the run degraded (partial stop or quarantined
// schedules), and the contained-panic records a bug report needs.
//
// A stop reason is reported whenever one was recorded, not only on
// partial runs: a SIGINT that lands in the same tick the frontier
// drains leaves a complete result with a StopReason, and silently
// dropping it would make the interrupt look ignored.
func RunSummary(res *explore.Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, res)
	if res.Partial {
		fmt.Fprintf(&b, "partial coverage: stopped on %s with %d executions run", res.StopReason, res.Executions)
		if res.FrontierRemaining > 0 {
			fmt.Fprintf(&b, ", frontier of %d remaining", res.FrontierRemaining)
		}
		b.WriteByte('\n')
		if res.Checkpoint != nil {
			fmt.Fprintln(&b, "resume state available (use -checkpoint to save it)")
		}
	} else if res.StopReason != "" {
		fmt.Fprintf(&b, "stop (%s) observed as the frontier drained; coverage is complete\n", res.StopReason)
	}
	// Streaming-window record (bounded-window runs only, keeping the
	// -window 0 output byte-identical to pre-window builds): throughput
	// and how much trace history the retirement frontier released.
	if res.Window > 0 {
		fmt.Fprintf(&b, "window %d: %d ops", res.Window, res.Ops)
		if secs := res.Elapsed.Seconds(); secs > 0 && res.Ops > 0 {
			fmt.Fprintf(&b, " (%.0f ops/s)", float64(res.Ops)/secs)
		}
		fmt.Fprintf(&b, ", %d retirements released %d stores and %d events",
			res.Retirements, res.RetiredStores, res.RetiredEvents)
		// Sweep diagnostics: the largest pin-closure any sweep kept live
		// (deterministic) and the total wall time spent sweeping (timing).
		if res.PinnedRootsMax > 0 {
			fmt.Fprintf(&b, ", pinned <= %d roots", res.PinnedRootsMax)
		}
		if res.SweepNanos > 0 {
			fmt.Fprintf(&b, ", %v sweeping", time.Duration(res.SweepNanos).Round(time.Microsecond))
		}
		fmt.Fprintln(&b)
	}
	// Supervision record (dispatch-supervised campaigns only): how the
	// isolation machinery behaved. Redeliveries and restarts are routine
	// fault recovery; poison and degradation are coverage- or
	// guarantee-affecting and always reported.
	if res.Isolated && (res.Redeliveries > 0 || res.WorkerRestarts > 0) {
		fmt.Fprintf(&b, "process isolation: %d unit redeliveries, %d worker restarts\n",
			res.Redeliveries, res.WorkerRestarts)
	}
	if res.Degraded {
		fmt.Fprintln(&b, "DEGRADED: worker processes could not be spawned; the campaign ran in-process (results identical, isolation guarantee lost)")
	}
	if len(res.PoisonUnits) > 0 {
		fmt.Fprintf(&b, "%d work unit(s) quarantined as poison; the canonical stream is cut at the first:\n", len(res.PoisonUnits))
		for _, p := range res.PoisonUnits {
			fmt.Fprintf(&b, "  %s\n", p)
		}
	}
	if res.Quarantined > 0 {
		fmt.Fprintf(&b, "%d schedule(s) quarantined after contained panics:\n", res.Quarantined)
		for _, ee := range res.ExecErrors {
			fmt.Fprintf(&b, "  %s\n", ee.Error())
		}
		if res.Quarantined > len(res.ExecErrors) {
			fmt.Fprintf(&b, "  … and %d more (record cap reached)\n", res.Quarantined-len(res.ExecErrors))
		}
	}
	return b.String()
}
