package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/coll"
)

// readmeCommands returns the argument lists of every `go run ./cmd/mpirun`
// line in the repository README, in file order.
func readmeCommands(t *testing.T) [][]string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var cmds [][]string
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "go run ./cmd/mpirun "); ok {
			cmds = append(cmds, shellWords(rest))
		}
	}
	if len(cmds) == 0 {
		t.Fatal("README.md has no `go run ./cmd/mpirun` lines")
	}
	return cmds
}

// shellWords splits a README command line the way a shell would for the
// quoting the README uses: whitespace separates words, double quotes group,
// and a word starting with # ends the line.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	inWord, quoted := false, false
	for _, r := range s {
		switch {
		case r == '"':
			quoted, inWord = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		case r == '#' && !inWord && !quoted:
			return words
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// flagValue reports the value following name in args, or "".
func flagValue(args []string, name string) string {
	if i := slices.Index(args, name); i >= 0 && i+1 < len(args) {
		return args[i+1]
	}
	return ""
}

var forcedCalls = regexp.MustCompile(`(?m)^coll (\S+): (\d+) calls$`)

// TestReadmeCommands runs every mpirun line of README.md, in order (a
// -record precedes the -replay that reads it), and requires the exit code
// the header comment promises: 0, or 2 for ftshrink with kills (the job
// survived by shrinking). A line that forces collective algorithms must
// also run each of them.
func TestReadmeCommands(t *testing.T) {
	cmds := readmeCommands(t)
	t.Chdir(t.TempDir()) // -record writes relative to the working directory
	for _, args := range cmds {
		var out bytes.Buffer
		code := run(args, &out)
		want := 0
		if flagValue(args, "-app") == "ftshrink" && flagValue(args, "-kill") != "" {
			want = 2
		}
		if code != want {
			t.Errorf("mpirun %s: exit %d, want %d\n%s", strings.Join(args, " "), code, want, out.String())
			continue
		}
		tuning, err := coll.ParseTuning(flagValue(args, "-coll"))
		if err != nil {
			t.Fatal(err)
		}
		served := map[string]string{}
		for _, m := range forcedCalls.FindAllStringSubmatch(out.String(), -1) {
			served[m[1]] = m[2]
		}
		for op, alg := range tuning {
			if n := served[op+"="+alg]; n == "" || n == "0" {
				t.Errorf("mpirun %s: forces %s=%s, which served %q calls\n%s", strings.Join(args, " "), op, alg, n, out.String())
			}
		}
	}
}

// TestReplayParallelNeedsLanes pins -parallel on a replay without -lanes: it
// applies to the recorded lane count, so a single-lane recording is the
// registry's typed error instead of a silently single-threaded replay.
func TestReplayParallelNeedsLanes(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.bin")
	var out bytes.Buffer
	if code := run([]string{"-np", "4", "-workload", "halo", "-platform", "mem", "-record", trace}, &out); code != 0 {
		t.Fatalf("record: exit %d\n%s", code, out.String())
	}
	if code := run([]string{"-replay", trace, "-parallel"}, &out); code != 1 {
		t.Fatalf("-replay -parallel on a single-lane recording: exit %d, want 1\n%s", code, out.String())
	}
	if code := run([]string{"-replay", trace, "-lanes", "2", "-parallel"}, &out); code != 0 {
		t.Fatalf("-replay -lanes 2 -parallel: exit %d\n%s", code, out.String())
	}
}

// TestEveryAppIsMeasured requires each launchable application to be run by
// a record sweep (internal/bench) or a conformance scenario: an app nothing
// measures is deleted, not kept.
func TestEveryAppIsMeasured(t *testing.T) {
	called := map[string]bool{}
	call := regexp.MustCompile(`\bapps\.(\w+)\(`)
	for _, dir := range []string{"../../internal/bench", "../../internal/conformance"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range call.FindAllStringSubmatch(string(data), -1) {
				called[strings.ToLower(m[1])] = true
			}
		}
	}
	for _, name := range appNames {
		if !called[name] {
			t.Errorf("-app %s: no record sweep or conformance scenario calls it", name)
		}
	}
}

// TestEveryFlagIsRun requires each flag main.go defines to appear in a
// README `go run ./cmd/mpirun` line, so TestReadmeCommands runs it: a flag
// no example exercises is deleted, not kept.
func TestEveryFlagIsRun(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defs := regexp.MustCompile(`\bfs\.\w+\("([^"]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(defs) == 0 {
		t.Fatal("main.go defines no flags; the check is vacuous")
	}
	run := map[string]bool{}
	for _, args := range readmeCommands(t) {
		for _, a := range args {
			if name, ok := strings.CutPrefix(a, "-"); ok {
				name, _, _ = strings.Cut(name, "=")
				run[name] = true
			}
		}
	}
	for _, d := range defs {
		if !run[d[1]] {
			t.Errorf("-%s: no README mpirun line runs it", d[1])
		}
	}
}
