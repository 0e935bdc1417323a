package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mmprofile/internal/server"
	"mmprofile/internal/wire"
)

// TestExportToStdoutImports: what `export` prints with no -out, saved to a
// file, is a file `import -in` takes, and the imported profile is the
// exported one byte for byte.
func TestExportToStdoutImports(t *testing.T) {
	s, err := server.New(server.Config{Threshold: 0.2}, server.Seams{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	local, remote := net.Pipe()
	s.ServeConn(remote)
	c := wire.NewClient(local)
	defer c.Close()
	if err := c.Subscribe("alice", "", []string{"cats", "kittens"}); err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	if err := export(c, "alice", "", &stdout); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "alice.profile")
	if err := os.WriteFile(file, stdout.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := importFile(c, "bob", file); err != nil {
		t.Fatalf("import of export's stdout: %v", err)
	}
	learner, want, err := c.Export("alice")
	if err != nil {
		t.Fatal(err)
	}
	gotLearner, got, err := c.Export("bob")
	if err != nil {
		t.Fatal(err)
	}
	if gotLearner != learner || !bytes.Equal(got, want) {
		t.Errorf("imported %s profile (%d bytes) differs from the exported %s one (%d bytes)", gotLearner, len(got), learner, len(want))
	}
}

// TestMain runs main itself, on the arguments in MMCLIENT_ARGS, when a
// test starts this binary with that variable set.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MMCLIENT_ARGS"); ok {
		os.Args = append([]string{"mmclient"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownCommandIsUsage: a command mmclient does not know prints the
// usage line and exits 2 before it dials. The address is one nothing
// listens on, which a dial answers with "connection refused" and exit 1.
func TestUnknownCommandIsUsage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "MMCLIENT_ARGS=-addr "+addr+" bogus")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(stderr.String(), "usage: mmclient") {
		t.Fatalf("mmclient bogus: %v, stderr %q; want exit 2 and the usage line", err, stderr.String())
	}
}
