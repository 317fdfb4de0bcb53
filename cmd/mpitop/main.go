// Command mpitop is a top-style terminal view of a running N-rank job's
// cluster observability plane. It renders one row per rank — message rate,
// p99 latency, end-to-end critical-path p99 with the dominant stage, queue
// depths, retransmits, connections, uptime, and the latest imbalance
// verdict — from the cluster report a running `mpirun
// -http` serves at /cluster/report, refreshing in place until the job goes
// away.
//
//	mpitop http://127.0.0.1:9099          # live: refresh every second
//	mpitop -once http://...               # one table, no refresh
//	mpitop -snapshot report.json          # render a saved cluster report
//
// -report-out FILE saves the last fetched report as JSON, so a live
// session can leave behind the same artifact `mpirun -report-out` writes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it renders the report to stdout until the job goes
// away (or once) and returns the exit status — 0 for -h, 2 for a usage error
// (a bad flag, or no aggregator and no snapshot), 1 for a report it cannot
// read, fetch or save.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpitop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	once := fs.Bool("once", false, "print one table and exit (no screen refresh)")
	snapshot := fs.String("snapshot", "", "render a saved cluster report JSON file instead of polling a live aggregator")
	reportOut := fs.String("report-out", "", "save the last fetched report JSON to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mpitop [-once] [-report-out FILE] <aggregator-url>\n"+
			"       mpitop -snapshot report.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mpitop:", err)
		return 1
	}

	if *snapshot != "" {
		rep, err := readSnapshot(*snapshot)
		if err != nil {
			return fail(err)
		}
		render(stdout, rep, false)
		return 0
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	url := reportURL(fs.Arg(0))
	client := &http.Client{Timeout: 5 * time.Second}

	fetched := false
	for {
		rep, err := fetchReport(client, url)
		if err != nil {
			if !fetched {
				return fail(err)
			}
			// The aggregator went away: the job ended. The last table stays
			// on screen as the final state.
			fmt.Fprintf(stderr, "mpitop: aggregator gone (%v), exiting\n", err)
			return 0
		}
		fetched = true
		render(stdout, rep, !*once)
		if *reportOut != "" {
			if err := writeSnapshot(*reportOut, rep); err != nil {
				return fail(err)
			}
		}
		if *once {
			return 0
		}
		time.Sleep(time.Second) // live-mode refresh interval
	}
}

// reportURL normalizes a user-supplied aggregator address into the report
// endpoint: scheme added when missing, /cluster/report appended unless the
// URL already names it.
func reportURL(arg string) string {
	u := arg
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if !strings.HasSuffix(u, "/cluster/report") {
		u = strings.TrimRight(u, "/") + "/cluster/report"
	}
	return u
}

func fetchReport(c *http.Client, url string) (cluster.Report, error) {
	var rep cluster.Report
	resp, err := c.Get(url)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %v", url, err)
	}
	return rep, nil
}

func readSnapshot(path string) (cluster.Report, error) {
	var rep cluster.Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

func writeSnapshot(path string, rep cluster.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// render prints the cluster table; refresh homes the cursor and clears the
// screen first so successive tables repaint in place.
func render(w io.Writer, rep cluster.Report, refresh bool) {
	var b strings.Builder
	if refresh {
		b.WriteString("\x1b[H\x1b[2J")
	}
	state := "clean"
	if !rep.Clean {
		state = fmt.Sprintf("%d verdict(s)", len(rep.Verdicts))
	}
	fmt.Fprintf(&b, "mpitop — %d ranks, %d polls, %s\n\n",
		len(rep.Ranks), rep.Polls, state)
	fmt.Fprintf(&b, "%5s %6s %10s %10s %10s %-16s %7s %7s %6s %6s %6s %9s  %s\n",
		"RANK", "STATE", "MSG/S", "P99", "E2E99", "HOTSTAGE", "POSTED", "UNEXP", "OOS", "RETX", "CONNS", "UPTIME", "VERDICT")
	for _, r := range rep.Ranks {
		state := "up"
		switch {
		case r.Err != "":
			state = "err"
		case !r.Ready:
			state = "wait"
		}
		fmt.Fprintf(&b, "%5d %6s %10s %10s %10s %-16s %7d %7d %6d %6d %6d %9s  %s\n",
			r.Rank, state,
			formatRate(r.MsgRate),
			formatNs(r.P99LatencyNs),
			formatNs(r.E2EP99Ns),
			formatHotStage(r),
			r.Posted, r.Unexpected, r.OOSBuffered,
			r.Retransmits, r.Conns,
			formatUptime(r.UptimeSeconds),
			r.Verdict)
	}
	if len(rep.Cluster) > 0 {
		keys := make([]string, 0, len(rep.Cluster))
		for k := range rep.Cluster {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("\ncluster totals: ")
		for i, k := range keys {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%s=%d", k, rep.Cluster[k])
		}
		b.WriteString("\n")
	}
	if len(rep.Verdicts) > 0 {
		b.WriteString("\nverdicts:\n")
		for _, v := range rep.Verdicts {
			where := ""
			if v.Phase != "" || v.Site != "" {
				where = fmt.Sprintf(" (phase %s, site %s)", v.Phase, v.Site)
			}
			fmt.Fprintf(&b, "  [%s] rank %d%s: %s\n", v.Reason, v.Rank, where, v.Detail)
		}
	}
	io.WriteString(w, b.String())
}

func formatRate(r float64) string {
	switch {
	case r <= 0:
		return "-"
	case r >= 1e6:
		return fmt.Sprintf("%.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// formatHotStage renders the rank's dominant critical-path stage with its
// p99, e.g. "deliver_wait 5.0ms" — "-" when the rank exports no
// attribution data.
func formatHotStage(r cluster.RankReport) string {
	stage, ns := r.HotStage()
	if stage == "" {
		return "-"
	}
	return fmt.Sprintf("%s %s", stage, formatNs(ns))
}

func formatNs(ns int64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func formatUptime(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Truncate(100 * time.Millisecond).String()
}
