package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
)

// writeShard writes recs as one shard file, as -trace-shard does, and
// returns its path.
func writeShard(t *testing.T, name string, recs ...flight.RankRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := flight.WriteRecords(f, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// rank is a one-event shard record: rank r's event of kind k on flow 7.
func rank(r int, k flight.Kind, ts int64) flight.RankRecord {
	return flight.RankRecord{Rank: r, Rings: []string{"thread"}, Events: []flight.Event{
		{TS: ts, Seq: 1, Kind: k, Inst: 1, Flow: 7},
	}}
}

// Two ranks' shards merge into one trace, and the message's flow arrow
// starts on the sender's rank and ends on the receiver's.
func TestMergeTwoShards(t *testing.T) {
	send := writeShard(t, "rank0.json", rank(0, flight.KindSendInject, 1000))
	recv := writeShard(t, "rank1.json", rank(1, flight.KindRecvDeliver, 5000))
	var stdout, stderr bytes.Buffer
	if code := run([]string{recv, send}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var events []struct {
		Ph  string `json:"ph"`
		Pid int    `json:"pid"`
		ID  uint64 `json:"id"`
		Cat string `json:"cat"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &events); err != nil {
		t.Fatalf("merged trace is not JSON: %v\n%s", err, stdout.String())
	}
	pids := map[int]bool{}
	arrow := map[string]int{}
	for _, e := range events {
		pids[e.Pid] = true
		if e.Cat == "mpi-flow" && e.ID == 7 {
			arrow[e.Ph] = e.Pid
		}
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("merged trace has pids %v, want ranks 0 and 1", pids)
	}
	if from, ok := arrow["s"]; !ok || from != 0 {
		t.Fatalf("flow arrow does not start on rank 0: %v", arrow)
	}
	if to, ok := arrow["f"]; !ok || to != 1 {
		t.Fatalf("flow arrow does not end on rank 1: %v", arrow)
	}
}

// A rank given twice, a missing shard and no shards at all each fail with
// their own status and message.
func TestMergeRefuses(t *testing.T) {
	a := writeShard(t, "a.json", rank(0, flight.KindSendInject, 1))
	b := writeShard(t, "b.json", rank(0, flight.KindSendInject, 2))
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"duplicate rank", []string{a, b}, 1, "rank 0 already provided by " + a},
		{"missing file", []string{filepath.Join(t.TempDir(), "none.json")}, 1, "no such file"},
		{"no arguments", nil, 2, "usage: tracemerge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), tc.msg)
		}
	}
}
