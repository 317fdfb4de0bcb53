// Command mpirun launches an N-rank job over the tcp transport on the
// local host. It allocates one loopback address per rank, then spawns N
// copies of the target command with the standard distributed flag set
// appended:
//
//	<command> <args...> -transport tcp -rank R -listen ADDR_R -peers ADDR_0,...,ADDR_N-1
//
// Each rank's stdout/stderr is teed to mpirun's with a "[rank R]" prefix.
// SIGINT/SIGTERM are forwarded to all ranks. mpirun exits 0 when every rank
// succeeds; when one fails it names that rank, sends the others SIGTERM (they
// would spin in their next collective forever), SIGKILLs what is left after
// two seconds, and exits with the failed rank's code.
//
// With -http (or -report-out) the launcher becomes the job's observability
// plane: it auto-allocates one loopback observability port per rank,
// appends `-http ADDR_R` to each rank's command line, and polls every
// rank's live endpoint into the cluster aggregator (internal/cluster). The
// merged view is served on the -http address at /cluster/metrics,
// /cluster/spc, /cluster/health, /cluster/imbalance, and /cluster/report
// (point cmd/mpitop at it), and -report-out writes the end-of-run cluster
// report JSON after the last rank exits.
//
// Examples:
//
//	mpirun -n 4 ./bin/multirate -pairs 4 -window 64 -iters 8
//	mpirun -n 4 -http :0 -report-out report.json ./bin/multirate -pairs 2
//	mpirun -n 8 -emit ./bin/multirate -pairs 2     # print the commands, run nothing
//
// With -emit the launcher prints one shell-quoted command line per rank
// instead of spawning anything, for running ranks by hand or on separate
// hosts (replace the loopback addresses with routable ones).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	var (
		n         = flag.Int("n", 2, "number of ranks to launch")
		emit      = flag.Bool("emit", false, "print per-rank command lines instead of spawning")
		httpAddr  = flag.String("http", "", "serve the cluster aggregation plane on this address (e.g. 127.0.0.1:9099, or :0 for an ephemeral port); per-rank observability ports are auto-allocated")
		poll      = flag.Duration("poll", 250*time.Millisecond, "cluster aggregator scrape interval")
		reportOut = flag.String("report-out", "", "write the end-of-run cluster report JSON to this file (implies per-rank observability ports)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mpirun [-n N] [-emit] [-http ADDR] [-poll D] [-report-out FILE] <command> [args...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *n < 1 {
		fatal(fmt.Errorf("-n %d: need at least one rank", *n))
	}
	argv := flag.Args()
	if len(argv) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Ports, in the order that keeps the launcher from handing one of its
	// own out twice: the aggregator's listener is bound first and kept; the
	// ranks' listen and observability ports are then reserved as one set.
	var aggLn net.Listener
	if *httpAddr != "" && !*emit {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		aggLn = ln
	}
	// The observability plane is on when anything consumes it: each rank
	// then gets its own live endpoint address for the aggregator to poll.
	count := *n
	if *httpAddr != "" || *reportOut != "" {
		count = 2 * *n
	}
	reserved, err := reserveAddrs(count)
	if err != nil {
		fatal(err)
	}
	addrs, obsAddrs := reserved[:*n], reserved[*n:]

	if *emit {
		peers := strings.Join(addrs, ",")
		for r := 0; r < *n; r++ {
			fmt.Println(shellJoin(rankArgv(argv, r, addrs[r], peers, obsAddr(obsAddrs, r))))
		}
		return
	}
	os.Exit(run(argv, addrs, obsAddrs, aggLn, *poll, *reportOut))
}

// obsAddr returns rank r's observability address ("" when the plane is off).
func obsAddr(obsAddrs []string, r int) string {
	if len(obsAddrs) == 0 {
		return ""
	}
	return obsAddrs[r]
}

// rankArgv appends the distributed flag set for one rank to the user's
// command line. Appending keeps last-one-wins flag semantics: the launcher's
// values override any the user passed themselves.
func rankArgv(argv []string, rank int, listen, peers, obsAddr string) []string {
	out := append([]string(nil), argv...)
	out = append(out,
		"-transport", "tcp",
		"-rank", fmt.Sprint(rank),
		"-listen", listen,
		"-peers", peers,
	)
	if obsAddr != "" {
		out = append(out, "-http", obsAddr)
	}
	return out
}

// reserveAddrs picks count distinct loopback ports by binding ephemeral
// listeners, holding every one open until the whole set is chosen — the
// kernel cannot hand out a port that is still bound — and releasing them
// together. The window between release and a rank binding its port is
// unavoidable without passing open file descriptors through exec.
func reserveAddrs(count int) ([]string, error) {
	addrs := make([]string, count)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("mpirun: reserving address %d of %d: %w", i+1, count, err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// killGrace is how long the survivors of a failed rank get between SIGTERM
// and SIGKILL.
const killGrace = 2 * time.Second

// run spawns one rank per address, tees their output, forwards signals and
// returns the job's exit code: 0 when every rank succeeds, otherwise the
// code of the first rank to fail — whose survivors are terminated, because a
// rank that lost a peer spins in its next collective forever. With obsAddrs
// set it also runs the cluster aggregation plane over the ranks' live
// endpoints, served on aggLn when that is non-nil.
func run(argv []string, addrs, obsAddrs []string, aggLn net.Listener, poll time.Duration, reportOut string) int {
	n := len(addrs)
	peers := strings.Join(addrs, ",")
	var agg *cluster.Aggregator
	if len(obsAddrs) > 0 {
		eps := make([]cluster.Endpoint, n)
		for r := range eps {
			eps[r] = cluster.Endpoint{Rank: r, URL: "http://" + obsAddrs[r]}
		}
		agg = cluster.NewAggregator(cluster.AggregatorConfig{Endpoints: eps, Poll: poll})
		agg.Start()
		if aggLn != nil {
			defer cluster.Serve(aggLn, agg).Close()
			fmt.Fprintf(os.Stderr, "mpirun: cluster aggregator on http://%s\n", aggLn.Addr())
		}
	}

	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, n)
	cmds := make([]*exec.Cmd, n)
	signalAll := func(sig os.Signal) {
		for _, cmd := range cmds {
			if cmd != nil {
				_ = cmd.Process.Signal(sig) // an exited rank refuses it; nothing to do
			}
		}
	}
	for r := 0; r < n; r++ {
		cmd := exec.Command(argv[0], rankArgv(argv[1:], r, addrs[r], peers, obsAddr(obsAddrs, r))...)
		cmd.Stdin = nil
		outPipe, err := cmd.StdoutPipe()
		if err != nil {
			fatal(fmt.Errorf("mpirun: rank %d stdout: %w", r, err))
		}
		errPipe, err := cmd.StderrPipe()
		if err != nil {
			fatal(fmt.Errorf("mpirun: rank %d stderr: %w", r, err))
		}
		if err := cmd.Start(); err != nil {
			// Ranks already launched must not outlive a failed launch.
			signalAll(syscall.SIGKILL)
			fatal(fmt.Errorf("mpirun: starting rank %d: %w", r, err))
		}
		cmds[r] = cmd
		var tee sync.WaitGroup
		tee.Add(2)
		go teePrefixed(&tee, os.Stdout, outPipe, r)
		go teePrefixed(&tee, os.Stderr, errPipe, r)
		go func() {
			// Drain this rank's pipes before Wait: Wait closes them, and
			// output still buffered in the tee would be lost.
			tee.Wait()
			exits <- exit{r, cmd.Wait()}
		}()
	}

	// Wait on every rank at once, forwarding interrupts so a ^C tears the
	// whole job down.
	sigc := make(chan os.Signal, 4)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	code := 0
	var kill <-chan time.Time // armed by the first failure
	for left := n; left > 0; {
		select {
		case sig := <-sigc:
			signalAll(sig)
		case <-kill:
			signalAll(syscall.SIGKILL)
		case e := <-exits:
			left--
			if e.err == nil {
				continue
			}
			if code != 0 {
				fmt.Fprintf(os.Stderr, "mpirun: rank %d: %v\n", e.rank, e.err)
				continue
			}
			code = 1
			var xerr *exec.ExitError
			if errors.As(e.err, &xerr) && xerr.ExitCode() > 0 {
				code = xerr.ExitCode()
			}
			fmt.Fprintf(os.Stderr, "mpirun: rank %d failed: %v; terminating the other ranks\n", e.rank, e.err)
			signalAll(syscall.SIGTERM)
			kill = time.After(killGrace)
		}
	}
	signal.Stop(sigc)

	if agg != nil {
		// Stop polling before the report: the ranks are gone, and further
		// scrape failures would only overwrite the error notes on the last
		// good per-rank state the report is built from.
		agg.Stop()
		if reportOut != "" {
			rep := cluster.BuildReport(agg.State())
			b, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(reportOut, append(b, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpirun: writing cluster report: %v\n", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Fprintf(os.Stderr, "mpirun: cluster report written to %s\n", reportOut)
			}
		}
	}
	return code
}

// teePrefixed copies one rank's stream line by line, prefixing each line
// with its rank so interleaved output stays attributable.
func teePrefixed(wg *sync.WaitGroup, dst io.Writer, src io.Reader, rank int) {
	defer wg.Done()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		fmt.Fprintf(dst, "[rank %d] %s\n", rank, sc.Text())
	}
}

// shellJoin renders an argv as a copy-pasteable shell command, quoting
// arguments that need it.
func shellJoin(argv []string) string {
	parts := make([]string, len(argv))
	for i, a := range argv {
		if a == "" || strings.ContainsAny(a, " \t'\"\\$&|;<>()*?[]#~") {
			parts[i] = "'" + strings.ReplaceAll(a, "'", `'\''`) + "'"
		} else {
			parts[i] = a
		}
	}
	return strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpirun:", err)
	os.Exit(1)
}
