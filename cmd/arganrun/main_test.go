package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes the command body the way main does, capturing both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestBadInputsExitNonZero: every malformed invocation must produce exit
// code 1 with a clear one-line diagnostic on stderr — never a panic, never
// a zero exit.
func TestBadInputsExitNonZero(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.el")
	if err := os.WriteFile(garbage, []byte("this is not an edge list\n1 2 3 4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"no_input", nil, "need -graph or -dataset"},
		{"missing_graph_file", []string{"-graph", filepath.Join(t.TempDir(), "nope.el")}, "opening graph file"},
		{"malformed_graph_file", []string{"-graph", garbage}, "reading graph file"},
		{"unknown_dataset", []string{"-dataset", "NOPE"}, "unknown dataset"},
		{"bad_fault_spec", []string{"-dataset", "HW", "-scale", "0.05", "-faults", "crash=oops"}, "fault"},
		{"unknown_system", []string{"-dataset", "HW", "-scale", "0.05", "-system", "NoSuch"}, "unknown system"},
		{"negative_soak", []string{"-dataset", "HW", "-scale", "0.05", "-soak", "-3"}, "-soak must be >= 0"},
		{"live_unsupported_app", []string{"-dataset", "HW", "-scale", "0.05", "-app", "color", "-soak", "1"}, "does not run under the live driver"},
		{"live_bad_source", []string{"-dataset", "HW", "-scale", "0.05", "-app", "bfs", "-soak", "1", "-source", "-1"}, "source -1 outside [0, "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCLI(c.args...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, "arganrun: ") || !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr %q missing prefix or %q", stderr, c.want)
			}
		})
	}
}

// TestBadFlagExitsTwo: flag-parse failures use the conventional exit 2 — the
// deleted -recovery flag included.
func TestBadFlagExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-dataset", "HW", "-recovery", "local"}} {
		code, _, stderr := runCLI(args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Fatalf("%v: exit code = %d, want 2 with the flag package's error (stderr: %s)", args, code, stderr)
		}
	}
}

// TestRunWithFaultPlan is a smoke test of the full fault-injection path
// through the CLI: a crash-and-recover plan on a small stand-in must still
// exit 0 and report the fault accounting line.
func TestRunWithFaultPlan(t *testing.T) {
	code, stdout, stderr := runCLI(
		"-dataset", "HW", "-scale", "0.05", "-app", "sssp",
		"-faults", "crash=1@300+50", "-ckpt-every", "150")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "faults        :") || !strings.Contains(stdout, "crashes=1") {
		t.Fatalf("missing fault accounting in output:\n%s", stdout)
	}
}

// TestNoRecoverReportsNA: stripping the restart must leave the crashed
// worker dead and the run non-convergent, reported as NA rather than an
// error or a wrong answer.
func TestNoRecoverReportsNA(t *testing.T) {
	code, stdout, stderr := runCLI(
		"-dataset", "HW", "-scale", "0.05", "-app", "sssp",
		"-faults", "crash=1@300+50", "-no-recover")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "result: NA") || !strings.Contains(stdout, "never recovered") {
		t.Fatalf("want NA result for unrecovered crash, got:\n%s", stdout)
	}
}

// TestLiveSoakLocalRecovery drives the -soak path end to end: a
// crash-and-restart plan under localized recovery, three iterations, every
// run verified against the sequential reference.
func TestLiveSoakLocalRecovery(t *testing.T) {
	code, stdout, stderr := runCLI(
		"-dataset", "HW", "-scale", "0.05", "-app", "sssp", "-n", "4",
		"-soak", "3", "-faults", "crash=1@u40+10")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s\nstdout: %s", code, stderr, stdout)
	}
	if !strings.Contains(stdout, "soak summary  : 3/3 correct") {
		t.Fatalf("missing soak summary in output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "soak 3/3: ok") || !strings.Contains(stdout, "replayed=") {
		t.Fatalf("soak lines missing recovery accounting:\n%s", stdout)
	}
}

// TestSimReportFlags: a plain sim run with both report sinks must print the
// text report to stdout and write parseable JSON to the file.
func TestSimReportFlags(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "attr.json")
	code, stdout, stderr := runCLI(
		"-dataset", "HW", "-scale", "0.05", "-app", "sssp", "-n", "4",
		"-report", "-", "-report-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "straggler attribution: window") ||
		!strings.Contains(stdout, "straggler: worker ") {
		t.Fatalf("stdout missing attribution report:\n%s", stdout)
	}
	if !strings.Contains(stdout, "report-json   : "+jsonPath) {
		t.Fatalf("stdout missing report-json confirmation line:\n%s", stdout)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workers   []struct{ Coverage float64 } `json:"workers"`
		Straggler int                          `json:"straggler"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(doc.Workers) != 4 {
		t.Fatalf("report has %d workers, want 4", len(doc.Workers))
	}
	for i, w := range doc.Workers {
		if w.Coverage < 0.95 {
			t.Errorf("worker %d coverage %.4f < 0.95", i, w.Coverage)
		}
	}
}

// TestServeTelemetry: -serve on an ephemeral port must announce the endpoint
// and stay compatible with both drivers (sim here, live soak elsewhere).
func TestServeTelemetry(t *testing.T) {
	code, stdout, stderr := runCLI(
		"-dataset", "HW", "-scale", "0.05", "-app", "wcc",
		"-serve", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "telemetry     : http://127.0.0.1:") ||
		!strings.Contains(stdout, "/metrics") {
		t.Fatalf("stdout missing telemetry endpoint line:\n%s", stdout)
	}
}
