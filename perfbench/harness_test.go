package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with a space and a parenthesis must not shift fields.
	line := "4242 (bc served) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 75 0 0 20 0 8 0 123 0 0"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 325 * clockTick; got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1"); err == nil {
		t.Fatal("short line accepted")
	}
}

func TestParseStatusHWM(t *testing.T) {
	got, err := parseStatusHWM(strings.NewReader("Name:\tbcserved\nVmPeak:\t 9000 kB\nVmHWM:\t  1234 kB\nVmRSS:\t 1000 kB\n"))
	if err != nil || got != 1234 {
		t.Fatalf("got %d, %v; want 1234", got, err)
	}
	if _, err := parseStatusHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Fatal("missing VmHWM accepted")
	}
}

// The live reading of this process must parse and be plausible.
func TestReadProcStatSelf(t *testing.T) {
	st, err := readProcStat(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if st.hwmKB <= 0 || st.cpu < 0 {
		t.Fatalf("implausible reading %+v", st)
	}
}

// A started process is stopped, waited for, and its directory removed.
func TestProcStopAndCleanup(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "run")
	if err := os.MkdirAll(filepath.Join(run, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	p, err := spawn("sleeper", run, "sleep", "30")
	if err != nil {
		t.Skip("no sleep binary:", err)
	}
	if err := p.stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.exited() {
		t.Fatal("process still running after stop")
	}
	if err := removeDir(run); err != nil {
		t.Fatal(err)
	}
}
