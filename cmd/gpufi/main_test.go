package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gpufi"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
)

// gpufiCmd runs the command line args in-process, as main would, and
// returns the exit code and what was written to stdout and stderr.
func gpufiCmd(ctx context.Context, args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(ctx, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs args and fails the test unless they exit 0.
func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	code, stdout, stderr := gpufiCmd(context.Background(), args...)
	if code != 0 {
		t.Fatalf("gpufi %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// TestRTLSingleCampaign: one (op, range, module) campaign prints its
// statistics, and its profile and detailed-report files are written.
func TestRTLSingleCampaign(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, csv := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out"), filepath.Join(dir, "d.csv")
	stdout, stderr := mustRun(t, "rtl", "-op", "FADD", "-module", "FP32", "-faults", "50",
		"-cpuprofile", cpu, "-memprofile", mem, "-detailed", csv)
	if !strings.HasPrefix(stdout, "FADD/M/FP32: 50 injections\n") || !strings.Contains(stdout, "  histogram: ") {
		t.Errorf("stdout:\n%s", stdout)
	}
	if !strings.HasPrefix(stderr, "campaign op=FADD range=M module=FP32 injections=50 ") {
		t.Errorf("general report missing from stderr:\n%s", stderr)
	}
	for _, p := range []string{cpu, mem, csv} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %v)", p, err, fi)
		}
	}
}

// TestRTLThenSW runs the Fig. 2 flow at tiny scale: a full
// characterisation writes a database whose entry count is the one
// reported, and software campaigns inject from it.
func TestRTLThenSW(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.json")
	_, stderr := mustRun(t, "rtl", "-faults", "20", "-tmxm", "20", "-out", db)
	m := regexp.MustCompile(`wrote \S+ \((\d+) entries, (\d+) t-MxM pools\)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no summary line in stderr:\n%s", stderr)
	}
	loaded, err := gpufi.LoadDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if got := strconv.Itoa(len(loaded.Entries)); got != m[1] {
		t.Errorf("database holds %s entries, the log reports %s", got, m[1])
	}
	if got := strconv.Itoa(len(loaded.TMXM)); got != m[2] || got == "0" {
		t.Errorf("database holds %s t-MxM pools, the log reports %s", got, m[2])
	}

	stdout, stderr := mustRun(t, "sw", "-app", "MxM", "-model", "syndrome", "-db", db, "-n", "20")
	if !strings.HasPrefix(stdout, "MxM ") || strings.Count(stdout, "\n") != 1 || !strings.Contains(stderr, "MxM: engine replay speedup") {
		t.Errorf("sw MxM: stdout %q stderr %q", stdout, stderr)
	}
	stdout, _ = mustRun(t, "sw", "-app", "LeNet", "-model", "tile", "-db", db, "-n", "10")
	if !strings.HasPrefix(stdout, "LeNet ") || !strings.Contains(stdout, "critical SDCs") {
		t.Errorf("sw LeNet: stdout %q", stdout)
	}
}

// TestRTLInterruptedWritesNothing pins the no-partial-database contract:
// a characterisation whose context ends reports how far it got and leaves
// no file at -out.
func TestRTLInterruptedWritesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := filepath.Join(t.TempDir(), "db.json")
	code, _, stderr := gpufiCmd(ctx, "rtl", "-faults", "20", "-out", db)
	if code != 1 || !strings.Contains(stderr, "gpufi rtl: interrupted after ") {
		t.Errorf("exit %d, stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(db); !os.IsNotExist(err) {
		t.Errorf("%s exists after an interrupted run (%v)", db, err)
	}
}

// TestProfilePrintsEveryApp: both forms print one row (or one block
// header) per suite app and CNN.
func TestProfilePrintsEveryApp(t *testing.T) {
	var names []string
	for _, w := range gpufi.HPCSuite() {
		names = append(names, w.Name)
	}
	names = append(names, "LeNetLite", "YoloLite")
	shares, _ := mustRun(t, "profile")
	ops, _ := mustRun(t, "profile", "-ops")
	for i, line := range strings.Split(strings.TrimSuffix(shares, "\n"), "\n") {
		if i >= len(names) || !strings.HasPrefix(line, names[i]+" ") || !strings.Contains(line, "FP32=") {
			t.Errorf("profile row %d: %q", i, line)
		}
	}
	if rows := strings.Count(shares, "\n"); rows != len(names) {
		t.Errorf("profile printed %d rows, want %d", rows, len(names))
	}
	for _, name := range names {
		if !strings.Contains(ops, "\n"+name+" (total ") && !strings.HasPrefix(ops, name+" (total ") {
			t.Errorf("profile -ops has no block for %s", name)
		}
	}
}

// experimentSections are the headers gpufi experiments prints, in order.
var experimentSections = []string{
	"== Table I: module inventory ==",
	"== Fig. 4: AVF per module and instruction ==",
	"== §V-C: syndrome power laws ==",
	"== Fig. 7 / Table II: t-MxM ==",
	"== Fig. 10 / Table III: PVF ==",
	"== Campaign engine accounting (replay speedup) ==",
	"== §VI: CNN criticality ==",
	"== §VI: time savings ==",
}

// TestExperimentsPrintsEverySection runs the whole evaluation at tiny
// scale: every section is printed, in order, and the §V-C rows, which
// come from a map, follow the database's canonical order.
func TestExperimentsPrintsEverySection(t *testing.T) {
	stdout, _ := mustRun(t, "experiments", "-rtl", "100", "-tmxm", "30", "-hpc", "5", "-cnn", "5", "-yolo", "5")
	at := 0
	for _, h := range experimentSections {
		i := strings.Index(stdout[at:], h)
		if i < 0 {
			t.Fatalf("section %q missing or out of order:\n%s", h, stdout)
		}
		at += i
	}
	powerLaws := stdout[strings.Index(stdout, experimentSections[2]):strings.Index(stdout, experimentSections[3])]
	rows := regexp.MustCompile(`(?m)^  (\w+)/M/(\w+) `).FindAllStringSubmatch(powerLaws, -1)
	last := -1
	for _, r := range rows {
		op, _ := isa.ParseCharacterized(r[1])
		mod, _ := faults.ParseModule(r[2])
		if pos := int(op)*len(faults.AllModules()) + int(mod); pos <= last {
			t.Errorf("§V-C row %s/M/%s is out of order:\n%s", r[1], r[2], powerLaws)
		} else {
			last = pos
		}
	}
	if len(rows) < 5 {
		t.Errorf("§V-C has %d rows:\n%s", len(rows), powerLaws)
	}
}

// TestExperimentsInterrupted: an ended context stops the evaluation with
// a one-line message.
func TestExperimentsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, stdout, stderr := gpufiCmd(ctx, "experiments", "-rtl", "30", "-tmxm", "30", "-hpc", "5", "-cnn", "5", "-yolo", "5")
	if code != 1 || !strings.HasSuffix(stderr, "\ngpufi experiments: interrupted; campaigns are deterministic, re-run to reproduce\n") {
		t.Errorf("exit %d, stderr:\n%s", code, stderr)
	}
	if strings.Contains(stdout, experimentSections[1]) {
		t.Errorf("printed past the interrupted characterisation:\n%s", stdout)
	}
}

// TestServeHealthzAndShutdown: serve binds the address it is given
// (port 0 picks one and the log names it), answers /healthz, and returns
// cleanly once its context ends.
func TestServeHealthzAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	args := []string{"-addr", "127.0.0.1:0", "-dir", t.TempDir(), "-jobs", "1"}
	logR, logW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, args, io.Discard, logW)
		logW.Close()
	}()
	var addr string
	sc := bufio.NewScanner(logR)
	for addr == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "gpufi serve: listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	go io.Copy(io.Discard, logR) // the shutdown lines
	if addr == "" {
		t.Fatalf("serve logged no address: %v", <-done)
	}
	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil {
		t.Error(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %s", resp.Status)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("serve returned %v after its context ended", err)
	}

	code, _, stderr := gpufiCmd(context.Background(), "serve", "-worker")
	if code != 1 || stderr != "gpufi serve: -worker requires -coordinator URL\n" {
		t.Errorf("serve -worker: exit %d, stderr %q", code, stderr)
	}
}

// TestBadCommandLines: every refused command line ends in a one-line
// error and the documented exit code — 2 for what the command line itself
// gets wrong, 1 for a value the campaign refuses — never a panic. A
// command line is refused before any work starts, so those cases run on
// a cancelled context: one that slips through stops at once instead of
// running a campaign or a server.
func TestBadCommandLines(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		code int
		last string // the last stderr line
	}{
		{nil, 2, strings.TrimSuffix(usage, "\n")},
		{[]string{"bogus"}, 2, strings.TrimSuffix(usage, "\n")},
		{[]string{"rtl", "extra-arg"}, 2, `gpufi rtl: unexpected argument "extra-arg" (flags only; see -h)`},
		{[]string{"sw", "extra-arg"}, 2, `gpufi sw: unexpected argument "extra-arg" (flags only; see -h)`},
		{[]string{"serve", "-addr", "127.0.0.1:0", "x"}, 2, `gpufi serve: unexpected argument "x" (flags only; see -h)`},
		{[]string{"experiments", "-rtl", "1", "x"}, 2, `gpufi experiments: unexpected argument "x" (flags only; see -h)`},
		{[]string{"profile", "x"}, 2, `gpufi profile: unexpected argument "x" (flags only; see -h)`},
		{[]string{"rtl", "-no-prune"}, 2, ""},
		{[]string{"sw", "-h"}, 0, ""},
		{[]string{"rtl", "-faults", "-5"}, 1, "gpufi rtl: core: micro/FADD/S/FP32: rtlfi: negative fault count -5"},
		{[]string{"rtl", "-op", "FADD", "-faults", "-5"}, 1, "gpufi rtl: rtlfi: negative fault count -5"},
		{[]string{"rtl", "-op", "XX"}, 1, `gpufi rtl: unknown opcode "XX"`},
		{[]string{"sw", "-app", "MxM", "-n", "-5"}, 1, "gpufi sw: swfi: negative injection count -5"},
		{[]string{"sw", "-app", "LeNet", "-n", "-5"}, 1, "gpufi sw: swfi: negative injection count -5"},
		{[]string{"sw", "-app", "Foo"}, 1, `gpufi sw: unknown application "Foo"`},
		{[]string{"sw", "-model", "foo"}, 1, `gpufi sw: unknown model "foo" (want one of bitflip, bitflip2, syndrome, syndrome-emp)`},
		{[]string{"sw", "-app", "Yolo", "-model", "foo"}, 1, `gpufi sw: unknown CNN model "foo" (want one of bitflip, syndrome, tile)`},
		{[]string{"sw", "-model", "syndrome"}, 1, "gpufi sw: -db is required for the syndrome model"},
	} {
		ctx := context.Background()
		if tc.code != 1 {
			ctx = cancelled
		}
		code, stdout, stderr := gpufiCmd(ctx, tc.args...)
		lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
		if code != tc.code || stdout != "" || strings.Contains(stderr, "panic") ||
			(tc.last != "" && lines[len(lines)-1] != tc.last) {
			t.Errorf("gpufi %s: exit %d (want %d), stdout %q, stderr:\n%s", strings.Join(tc.args, " "), code, tc.code, stdout, stderr)
		}
	}
	// The usage line lists exactly the subcommands there are.
	listed := strings.Split(regexp.MustCompile(`<(.*?)>`).FindStringSubmatch(usage)[1], "|")
	var names []string
	for name := range commands {
		names = append(names, name)
	}
	slices.Sort(listed)
	slices.Sort(names)
	if !slices.Equal(listed, names) {
		t.Errorf("usage lists %v, the subcommands are %v", listed, names)
	}
}

// TestStartWritesBothProfiles: after stop, both requested profiles exist
// and are non-empty; with neither requested, startProfile and stop do
// nothing.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := startProfile(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %v)", p, err, fi)
		}
	}
	stop, err = startProfile("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
