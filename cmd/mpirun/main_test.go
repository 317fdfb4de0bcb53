package main

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// The launcher's ranks in these tests are this test binary re-executed:
// helperDirEnv in the environment turns TestMain into a rank.
const (
	helperDirEnv  = "MPIRUN_TEST_HELPER_DIR"
	helperModeEnv = "MPIRUN_TEST_HELPER_MODE"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(helperDirEnv); dir != "" {
		helperRank(dir, os.Getenv(helperModeEnv))
	}
	os.Exit(m.Run())
}

// helperRank is one rank of a job whose rank 0 fails at start: rank 0 exits 3
// as soon as every other rank is up, the others leave their pid in dir and
// sleep for a minute — through SIGTERM when mode is "stubborn".
func helperRank(dir, mode string) {
	rank := -1
	for i, a := range os.Args[:len(os.Args)-1] {
		if a == "-rank" {
			rank, _ = strconv.Atoi(os.Args[i+1])
		}
	}
	pidFile := func(r int) string { return filepath.Join(dir, fmt.Sprintf("pid.%d", r)) }
	switch rank {
	case -1:
		os.Exit(2) // not launched by mpirun
	case 0:
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if _, err := os.Stat(pidFile(1)); err == nil {
				os.Exit(3)
			}
			time.Sleep(5 * time.Millisecond)
		}
		os.Exit(4)
	default:
		if mode == "stubborn" {
			signal.Ignore(syscall.SIGTERM)
		}
		tmp := pidFile(rank) + ".tmp"
		if err := os.WriteFile(tmp, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
			os.Exit(5)
		}
		if err := os.Rename(tmp, pidFile(rank)); err != nil {
			os.Exit(5)
		}
		time.Sleep(time.Minute)
		os.Exit(0)
	}
}

// TestRunKillsSurvivorsOfFailedRank: rank 0 exits 3 while rank 1 would run for
// a minute (spinning in its start barrier, in a real job). run must return
// rank 0's code within the kill grace and leave no rank behind — by SIGTERM,
// or by SIGKILL when the survivor ignores that.
func TestRunKillsSurvivorsOfFailedRank(t *testing.T) {
	for _, mode := range []string{"plain", "stubborn"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			t.Setenv(helperDirEnv, dir)
			t.Setenv(helperModeEnv, mode)
			addrs, err := reserveAddrs(2)
			if err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			code := run([]string{os.Args[0]}, addrs, nil, nil, 0, "")
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("run took %v with a rank failed at start, want under 5s", took)
			}
			if code != 3 {
				t.Errorf("run = %d, want the failed rank's exit code 3", code)
			}
			b, err := os.ReadFile(filepath.Join(dir, "pid.1"))
			if err != nil {
				t.Fatal(err)
			}
			pid, err := strconv.Atoi(string(b))
			if err != nil {
				t.Fatal(err)
			}
			if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
				syscall.Kill(pid, syscall.SIGKILL)
				t.Errorf("rank 1 (pid %d) outlived the launcher: kill(pid, 0) = %v", pid, err)
			}
		})
	}
}

// TestReserveAddrsDistinct: a set reserved in one call never repeats a port.
func TestReserveAddrsDistinct(t *testing.T) {
	addrs, err := reserveAddrs(64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("address %s reserved twice in %v", a, addrs)
		}
		seen[a] = true
	}
}
