package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/store"
	"mmprofile/internal/vsm"
)

// TestMain runs main itself, on the arguments in MMSTORE_ARGS, when a test
// starts this binary with that variable set.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MMSTORE_ARGS"); ok {
		os.Args = append([]string{"mmstore"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// journaled writes a state directory holding alice's subscribe and two
// judgments in its WAL and returns the directory, the WAL's path and the
// bytes before its last record.
func journaled(t *testing.T) (dir, wal string, prefix int64) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := vsm.Vector{Terms: []string{"cat"}, Weights: []float64{1}}
	for _, err := range []error{
		st.AppendSubscribe("alice", "MM", nil),
		st.AppendFeedback("alice", v, filter.Relevant),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	info, err := st.WALInfo()
	if err == nil {
		err = st.AppendFeedback("alice", v, filter.Relevant)
	}
	if err == nil {
		err = st.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "wal-000-00000000.log"), info.Committed
}

// rewrite applies damage to the file at path.
func rewrite(t *testing.T, path string, damage func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInspectsCleanTornAndCorruptJournals runs mmstore on three state
// directories: a clean one prints its summary and exits 0; a torn tail is
// reported as torn bytes beside a summary of the records before it, exit
// 0; corruption before the tail prints how much of the journal is
// readable and exits 1.
func TestInspectsCleanTornAndCorruptJournals(t *testing.T) {
	clean, _, _ := journaled(t)
	torn, tornWAL, prefix := journaled(t)
	var tornLine string
	rewrite(t, tornWAL, func(b []byte) []byte {
		tornLine = fmt.Sprintf("journal bytes:    %d committed + %d torn (crash artifact", prefix, int64(len(b)-5)-prefix)
		return b[:len(b)-5]
	})
	corrupt, corruptWAL, _ := journaled(t)
	rewrite(t, corruptWAL, func(b []byte) []byte { b[12] ^= 0xFF; return b }) // inside the first record

	for _, tc := range []struct {
		name, dir string
		exit      int
		stdout    []string
		stderr    string
	}{
		{"clean", clean, 0, []string{"journal events:   3 (2 feedback, 1 subscribe, 0 unsubscribe)", "dirty users:      1", "  alice"}, ""},
		{"torn", torn, 0, []string{"journal events:   2 (1 feedback, 1 subscribe, 0 unsubscribe)", tornLine}, ""},
		{"corrupt", corrupt, 1, nil, "(0 record(s) readable, 0 committed byte(s))"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "MMSTORE_ARGS=-state "+tc.dir)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != tc.exit {
			t.Errorf("%s: exit %d, want %d; stderr %q", tc.name, exit, tc.exit, stderr.String())
		}
		for _, want := range tc.stdout {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", tc.name, want, stdout.String())
			}
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), tc.stderr)
		}
	}
}
