package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
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
