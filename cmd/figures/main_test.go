package main

import (
	"bytes"
	"strings"
	"testing"
)

// Each usage error exits 2 with its message on stderr, before any sweep
// runs, and prints nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"bad scale", []string{"-scale", "huge", "-fig", "3a"}, `unknown -scale "huge" (want quick or paper)`},
		{"unknown figure", []string{"-fig", "9z"}, `unknown figure "9z"`},
		{"unknown ablation", []string{"-ablation", "gravity"}, `unknown ablation "gravity"`},
		{"no selection", nil, "Usage of figures:"},
		{"bad flag", []string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
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

// -h prints the flags and exits 0, as the flag package's own handling did.
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-fig string") {
		t.Errorf("stderr = %q, want the flag list", stderr.String())
	}
}
