package main

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// runMainEnv in the environment turns this test binary into the command.
const runMainEnv = "RMAMT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The real engine's result line reports what the Go collector cost over the
// timed section: the cycles it completed and its share of the CPU.
func TestResultLineReportsTheCollector(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-engine", "real", "-threads", "2", "-puts", "64", "-rounds", "2")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("rmamt: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`(?m)^engine=real .* gc_cycles=(\d+) gc_cpu=([0-9.]+)%`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no gc_cycles= and gc_cpu= on the result line:\n%s", out)
	}
	if share, err := strconv.ParseFloat(string(m[2]), 64); err != nil || share > 100 {
		t.Fatalf("gc_cpu=%s%%: not a share (%v)", m[2], err)
	}
}
