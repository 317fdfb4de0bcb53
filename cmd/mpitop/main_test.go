package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// -once -snapshot renders a saved report as one table, without the screen
// refresh: a row per rank, each rank's connection count in the CONNS column.
func TestSnapshotRendersTheTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	rep := cluster.Report{SchemaVersion: cluster.ReportSchemaVersion, Polls: 7, Clean: true, Ranks: []cluster.RankReport{
		{Rank: 0, Ready: true, MsgRate: 2.5e6, Sent: 100, Received: 90, Conns: 3},
		{Rank: 1, Ready: true, MsgRate: 1200, Conns: 2, UptimeSeconds: 4},
	}}
	if err := writeSnapshot(path, rep); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-once", "-snapshot", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if strings.Contains(out, "\x1b[") {
		t.Error("a snapshot repaints the screen")
	}
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "mpitop — 2 ranks, 7 polls, clean") {
		t.Fatalf("title line = %q", lines[0])
	}
	header := strings.Fields(lines[2])
	col := -1
	for i, h := range header {
		if h == "CONNS" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no CONNS column in %q", lines[2])
	}
	for r, want := range []string{"3", "2"} {
		row := strings.Fields(lines[3+r])
		if len(row) <= col || row[0] != []string{"0", "1"}[r] || row[col] != want {
			t.Errorf("rank %d row %q: CONNS column should read %s", r, lines[3+r], want)
		}
	}
	if !strings.Contains(lines[3], "2.50M") || !strings.Contains(lines[4], "1.2k") {
		t.Errorf("message rates not rendered: %q, %q", lines[3], lines[4])
	}
}

// No aggregator and no snapshot exits 2 with the usage; a snapshot that is
// not there exits 1 naming it. Neither prints a table.
func TestUsageAndMissingSnapshot(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no argument", nil, 2, "usage: mpitop"},
		{"bad flag", []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{"missing snapshot", []string{"-once", "-snapshot", filepath.Join(t.TempDir(), "gone.json")}, 1, "gone.json"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d", code, c.code)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr = %q, want it to name %q", stderr.String(), c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
		})
	}
}
