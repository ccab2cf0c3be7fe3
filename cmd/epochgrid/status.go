package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/fleet"
)

// runStatus fetches a coordinator's /v1/status and pretty-prints it: the
// done/leased/pending ledger, the cost-model ETA, and per-worker completion
// rates — the curl+jq incantation as a subcommand.
func runStatus(base string) int {
	cl := &fleet.Client{Base: base, Timeout: 5 * time.Second, Retries: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := cl.Status(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: status: %v\n", err)
		return 1
	}

	pending := st.Total - st.Done - st.Leased
	if pending < 0 {
		pending = 0
	}
	state := "running"
	if st.Complete {
		state = "complete"
	}
	fmt.Printf("sweep: %s  %d/%d trials done (%d leased, %d pending)\n",
		state, st.Done, st.Total, st.Leased, pending)
	fmt.Printf("  executed=%d cached=%d quarantined=%d duplicates=%d reissued=%d completions=%d\n",
		st.Executed, st.Cached, st.Quarantined, st.Duplicates, st.Reissued, st.Completions)
	switch {
	case st.Complete:
		fmt.Println("  eta: —")
	case st.ETASeconds > 0:
		fmt.Printf("  eta: ~%s (cost-model estimate)\n",
			(time.Duration(st.ETASeconds * float64(time.Second))).Round(100*time.Millisecond))
	default:
		fmt.Println("  eta: unknown (no completions observed yet)")
	}
	if len(st.Workers) > 0 {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  worker\tdone\trate/s")
		for _, w := range st.Workers {
			rate := "—"
			if w.RatePerSec > 0 {
				rate = fmt.Sprintf("%.2f", w.RatePerSec)
			}
			fmt.Fprintf(tw, "  %s\t%d\t%s\n", w.Name, w.Done, rate)
		}
		tw.Flush()
	}
	return 0
}
