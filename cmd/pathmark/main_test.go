package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// TestStatsJSONSmoke drives the embed → recognize pipeline through the
// real command functions and checks the acceptance property of -stats-json:
// the file is parseable JSONL and contains the three recognition stage
// spans (trace/scan/vote) with their counters.
func TestStatsJSONSmoke(t *testing.T) {
	dir := t.TempDir()
	host := filepath.Join(dir, "host.pasm")
	if err := os.WriteFile(host, []byte(vm.Dump(workloads.MiniCalc())), 0o644); err != nil {
		t.Fatal(err)
	}
	input := "1,10,20,0" // CalcSum(10, 20)
	marked := filepath.Join(dir, "marked.pasm")
	cmdEmbed([]string{"-in", host, "-out", marked,
		"-w", "0xBEEF", "-wbits", "64", "-input", input, "-seed", "7"})

	statsFile := filepath.Join(dir, "metrics.json")
	cmdRecognize([]string{"-in", marked, "-wbits", "64", "-input", input,
		"-stats-json", statsFile})

	f, err := os.Open(statsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[string]map[string]any{}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if ev["type"] == "span" {
			spans[ev["name"].(string)] = ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stats file is empty")
	}
	for span, counter := range map[string]string{
		"recognize.trace": "trace_bits",
		"recognize.scan":  "windows",
		"recognize.vote":  "survivors",
	} {
		ev, ok := spans[span]
		if !ok {
			t.Errorf("missing span %q in %v", span, spans)
			continue
		}
		if _, ok := ev["wall_ns"].(float64); !ok {
			t.Errorf("span %q has no wall_ns", span)
		}
		counters, _ := ev["counters"].(map[string]any)
		if _, ok := counters[counter]; !ok {
			t.Errorf("span %q missing counter %q (got %v)", span, counter, counters)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	defer func() {
		os.Stdout = old
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

// writeMiniCalc dumps the MiniCalc workload to dir and returns its path
// plus the -input string that exercises CalcSum(10, 20).
func writeMiniCalc(t *testing.T, dir string) (path, input string) {
	t.Helper()
	path = filepath.Join(dir, "host.pasm")
	if err := os.WriteFile(path, []byte(vm.Dump(workloads.MiniCalc())), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, "1,10,20,0"
}

// TestRecognizeExitCodes pins the exit-code contract of `pathmark
// recognize`: 0 when a watermark is recovered, and the dedicated no-match
// code — distinct from the hard-error code 1 — when the pipeline runs
// clean but finds nothing.
func TestRecognizeExitCodes(t *testing.T) {
	dir := t.TempDir()
	host, input := writeMiniCalc(t, dir)
	marked := filepath.Join(dir, "marked.pasm")
	cmdEmbed([]string{"-in", host, "-out", marked,
		"-w", "0xBEEF", "-wbits", "64", "-input", input, "-seed", "7"})

	if code := cmdRecognize([]string{"-in", marked, "-wbits", "64", "-input", input}); code != exitOK {
		t.Errorf("recognize on a marked program: exit %d, want %d", code, exitOK)
	}
	code := cmdRecognize([]string{"-in", host, "-wbits", "64", "-input", input})
	if code != exitNoMatch {
		t.Errorf("recognize on an unmarked program: exit %d, want %d", code, exitNoMatch)
	}
	if exitNoMatch == exitError || exitNoMatch == exitUsage {
		t.Errorf("no-match code %d must be distinct from hard-error %d and usage %d",
			exitNoMatch, exitError, exitUsage)
	}
}

// TestRecognizeKeyfileHelper is not a test: it is the subprocess body for
// TestRecognizeKeyfileErrors, whose bad keyfiles end in fatal's os.Exit.
func TestRecognizeKeyfileHelper(t *testing.T) {
	env := os.Getenv("PATHMARK_RECOGNIZE_ARGS")
	if env == "" {
		t.Skip("helper process for TestRecognizeKeyfileErrors")
	}
	os.Exit(cmdRecognize(strings.Split(env, "\n")))
}

// TestRecognizeKeyfileErrors pins -keyfile to wm.LoadKeyFile: a missing
// file and a corrupt one each exit with the hard-error code and print
// the loader's own error.
func TestRecognizeKeyfileErrors(t *testing.T) {
	dir := t.TempDir()
	host, _ := writeMiniCalc(t, dir)
	corrupt := filepath.Join(dir, "corrupt.key")
	if err := os.WriteFile(corrupt, []byte(`{"version": 1, "input": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, keyfile := range []string{filepath.Join(dir, "missing.key"), corrupt} {
		_, loadErr := wm.LoadKeyFile(keyfile)
		if loadErr == nil {
			t.Fatalf("%s: loader accepted a bad keyfile", keyfile)
		}
		cmd := exec.Command(os.Args[0], "-test.run", "^TestRecognizeKeyfileHelper$")
		cmd.Env = append(os.Environ(),
			"PATHMARK_RECOGNIZE_ARGS="+strings.Join([]string{"-in", host, "-keyfile", keyfile}, "\n"))
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != exitError {
			t.Fatalf("%s: want exit %d, got err=%v\n%s", keyfile, exitError, err, out)
		}
		if want := "pathmark: " + loadErr.Error(); !strings.Contains(string(out), want) {
			t.Errorf("%s: output lacks the loader's error %q:\n%s", keyfile, want, out)
		}
	}
}

// TestFleetCLIRoundTrip drives fleet embed → fleet identify through the
// command functions: each shipped copy identifies as its own customer, an
// unmarked suspect exits with the no-match code, and the manifest +
// keyfile land on disk.
func TestFleetCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	host, input := writeMiniCalc(t, dir)
	outdir := filepath.Join(dir, "fleet")
	keyfile := filepath.Join(outdir, "fleet.key")
	code := cmdFleetEmbed([]string{"-in", host, "-outdir", outdir, "-n", "3",
		"-wbits", "64", "-input", input, "-savekey", keyfile})
	if code != exitOK {
		t.Fatalf("fleet embed: exit %d", code)
	}
	manifest := filepath.Join(outdir, "fleet.json")
	for _, f := range []string{manifest, keyfile, "copy-000.pasm", "copy-001.pasm", "copy-002.pasm"} {
		if !filepath.IsAbs(f) {
			f = filepath.Join(outdir, f)
		}
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("fleet embed did not write %s: %v", f, err)
		}
	}

	for i := 0; i < 3; i++ {
		copyPath := filepath.Join(outdir, "copy-00"+string(rune('0'+i))+".pasm")
		out := captureStdout(t, func() {
			code = cmdFleetIdentify([]string{"-in", copyPath,
				"-manifest", manifest, "-keyfile", keyfile})
		})
		if code != exitOK {
			t.Errorf("identify copy %d: exit %d\n%s", i, code, out)
		}
		want := "customer-00" + string(rune('0'+i))
		if !strings.Contains(out, want) {
			t.Errorf("identify copy %d: output does not name %q:\n%s", i, want, out)
		}
	}

	out := captureStdout(t, func() {
		code = cmdFleetIdentify([]string{"-in", host,
			"-manifest", manifest, "-keyfile", keyfile})
	})
	if code != exitNoMatch {
		t.Errorf("identify unmarked host: exit %d, want %d\n%s", code, exitNoMatch, out)
	}
}

// TestFleetDemoSmoke runs the in-memory demo end to end — the same
// invocation CI uses — and checks it tells the full story. By default
// the last copy leaks; -leak 0 must leak the first, not fall back to it.
func TestFleetDemoSmoke(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		leaked string
	}{
		{[]string{"-n", "4"}, "customer 3"},
		{[]string{"-n", "4", "-leak", "0"}, "customer 0"},
		{[]string{"-n", "4", "-leak", "2"}, "customer 2"},
	} {
		var code int
		out := captureStdout(t, func() {
			code = cmdFleetDemo(tc.args)
		})
		if code != exitOK {
			t.Fatalf("fleet demo %v: exit %d\n%s", tc.args, code, out)
		}
		for _, want := range []string{
			"embedded 4 fingerprinted",
			"leaked copy identified as " + tc.leaked + " ",
			"unmarked host matches no customer",
			"2 traces for 2 pairs",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("demo %v output missing %q:\n%s", tc.args, want, out)
			}
		}
	}
}

// TestFindAttack covers the name resolution used by `pathmark attack`:
// known names resolve, unknown names fail with the catalog in the error.
func TestFindAttack(t *testing.T) {
	if _, err := findAttack("branch-insertion"); err != nil {
		t.Errorf("branch-insertion should resolve: %v", err)
	}
	_, err := findAttack("no-such-attack")
	if err == nil {
		t.Fatal("expected an error for an unknown attack")
	}
	for _, want := range []string{`"no-such-attack"`, "branch-insertion", "loop-peeling"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %s", err, want)
		}
	}
}

// TestInjectCLISmoke drives the inject subcommand over the whole catalog
// and checks every fault reports one of the three contract outcomes.
func TestInjectCLISmoke(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	cmdInject([]string{"-all", "-seed", "5"})
	w.Close()
	os.Stdout = old
	out := <-done

	for _, fault := range []string{"trace-bitflip", "key-truncate", "vm-fuel", "worker-panic", "cancelled-context"} {
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, fault+" ") {
				line = l
				break
			}
		}
		if line == "" {
			t.Errorf("no report line for fault %q in output:\n%s", fault, out)
			continue
		}
		if !strings.Contains(line, "survive") && !strings.Contains(line, "degrade") && !strings.Contains(line, "fail") {
			t.Errorf("fault %q line has no outcome: %q", fault, line)
		}
	}
	if !strings.Contains(out, "confidence=") {
		t.Errorf("inject output carries no confidence scores:\n%s", out)
	}
}
