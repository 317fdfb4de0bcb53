package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/flight"
)

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`a"b`, `a\"b`},
		{`back\slash`, `back\\slash`},
		{"line\nbreak", `line\nbreak`},
		{"\\\"\n", `\\\"\n`},
		{``, ``},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWritePrometheusInfo(t *testing.T) {
	var sb strings.Builder
	err := WritePrometheusInfo(&sb, "mpi_build_info", map[string]string{
		"transport": "tcp",
		"caps":      "lossless",
		"design":    `odd "name"` + "\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `mpi_build_info{caps="lossless",design="odd \"name\"\n",transport="tcp"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("info gauge wrong:\n got %q\nwant substring %q", out, want)
	}
	if !strings.Contains(out, "# TYPE mpi_build_info gauge\n") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
}

func TestBucketBoundaries(t *testing.T) {
	// Every observation must land in a bucket whose upper bound is >= the
	// value, and the previous bucket's bound (if any) must be < the value —
	// the log-linear layout contract quantile estimation rests on.
	values := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 23, 24, 25,
		1<<20 - 1, 1 << 20, 1<<20 + 1, 3 << 20, 1 << 40}
	for _, v := range values {
		i := bucketIndex(v)
		if up := BucketUpper(i); up < v && i != NumBuckets-1 {
			t.Errorf("value %d: bucket %d upper bound %d < value", v, i, up)
		}
		if i > 0 {
			if prev := BucketUpper(i - 1); prev >= v {
				t.Errorf("value %d: previous bucket %d upper bound %d >= value", v, i-1, prev)
			}
		}
	}
	// Exact boundary values: BucketUpper(i) must itself map to bucket i
	// (upper bounds are inclusive), and BucketUpper(i)+1 to bucket i+1.
	for i := 0; i < NumBuckets-1; i++ {
		up := BucketUpper(i)
		if got := bucketIndex(up); got != i {
			t.Errorf("BucketUpper(%d)=%d maps to bucket %d", i, up, got)
		}
		if got := bucketIndex(up + 1); got != i+1 {
			t.Errorf("BucketUpper(%d)+1=%d maps to bucket %d, want %d", i, up+1, got, i+1)
		}
	}
	// Oversized values clamp into the last bucket instead of overflowing.
	if got := bucketIndex(1 << 62); got != NumBuckets-1 {
		t.Errorf("huge value maps to bucket %d, want %d", got, NumBuckets-1)
	}
	// Upper bounds must be strictly increasing.
	for i := 1; i < NumBuckets; i++ {
		if BucketUpper(i) <= BucketUpper(i-1) {
			t.Errorf("BucketUpper not increasing at %d: %d <= %d", i, BucketUpper(i), BucketUpper(i-1))
		}
	}
}

func TestChromeTraceMergeCausality(t *testing.T) {
	// Rank 1's clock runs 1ms ahead of rank 0's. On raw timestamps the
	// receive would appear to precede the send; after correction the merged
	// trace must order send < deliver and link them with one flow arrow.
	const flowID = 0x1_0003_0000_0005
	send := flight.RankRecord{
		Rank:           1,
		StartUnixNs:    2_000_000_000, // rank-1 clock
		ClockToRank0Ns: -1_000_000,    // rank-1 is 1ms ahead of rank 0
		Events: []flight.Event{
			{TS: 500_000, Seq: 1, Flow: flowID, Kind: flight.KindSendInject, Inst: 1, A0: 0, A1: 5},
		},
	}
	recv := flight.RankRecord{
		Rank:        0,
		StartUnixNs: 2_000_000_000, // same nominal base, true clock 1ms behind
		Events: []flight.Event{
			// Arrived 100µs (true time) after the send: raw TS appears older
			// than the sender's because of the skew.
			{TS: 500_000 - 1_000_000 + 100_000, Seq: 9, Flow: flowID, Kind: flight.KindRecvDeliver, Inst: 2, A0: 1, A1: 5},
			{TS: 500_000 - 1_000_000 + 150_000, Seq: 10, Flow: flowID, Kind: flight.KindMatchComplete, A0: 1, A1: 0},
		},
	}
	var sb strings.Builder
	if err := WriteChromeTraceRanks(&sb, []flight.RankRecord{recv, send}, nil); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, sb.String())
	}
	ts := map[string]float64{}
	var flowPhases []string
	for _, e := range parsed {
		switch e["ph"] {
		case "X":
			ts[e["name"].(string)] = e["ts"].(float64)
		case "s", "t", "f":
			flowPhases = append(flowPhases, e["ph"].(string))
			if got := e["id"].(float64); got != float64(flowID) {
				t.Errorf("flow id = %v, want %d", got, flowID)
			}
		}
	}
	sendTS, deliverTS, matchTS := ts["send_inject"], ts["recv_deliver"], ts["match_complete"]
	if !(sendTS < deliverTS && deliverTS < matchTS) {
		t.Fatalf("corrected timeline not causal: send=%v deliver=%v match=%v", sendTS, deliverTS, matchTS)
	}
	// 100µs true one-way latency must survive the correction.
	if d := deliverTS - sendTS; d < 99 || d > 101 {
		t.Fatalf("corrected one-way gap = %vµs, want ~100", d)
	}
	if len(flowPhases) != 3 || flowPhases[0] != "s" || flowPhases[1] != "t" || flowPhases[2] != "f" {
		t.Fatalf("flow phases = %v, want [s t f]", flowPhases)
	}
}
