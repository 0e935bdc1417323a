package store

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmprofile/internal/filter"
)

// The checkpoint golden holds, in hex, the files a scripted journal leaves
// after two checkpoints. Rewrite it only for a deliberate format change:
//
//	go test ./internal/store -run TestSegmentBytesUnchanged -update-golden
const checkpointGolden = "testdata/checkpoint_golden.txt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+checkpointGolden+" from this build's checkpoint")

// TestSegmentBytesUnchanged pins the bytes a checkpoint writes — both
// segments and the MANIFEST — for a journal that holds every case the
// compaction walk has: clean and dirty segment users, an unsubscribe, an
// unsubscribe and resubscribe in one WAL, fresh MM and MMND users, and a
// fresh user unsubscribed in the WAL that subscribed it.
func TestSegmentBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	checkpoint := func(gen int) {
		t.Helper()
		_, err := s.Checkpoint(1)
		must(err)
		for _, name := range []string{fmt.Sprintf("seg-000-%08d.db", gen), manifestName} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			must(err)
			fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(data))
		}
	}
	must(s.AppendSubscribe("clean", "MM", trainedProfile(t, 2)))
	must(s.AppendSubscribe("dirty", "MM", nil))
	must(s.AppendFeedback("dirty", vec("cat", 1.0, "dog", 0.5), filter.Relevant))
	must(s.AppendSubscribe("gone", "MM", nil))
	must(s.AppendSubscribe("back", "MMND", nil))
	must(s.AppendFeedback("back", vec("fish", 1.0), filter.Relevant))
	checkpoint(1)

	must(s.AppendFeedback("dirty", vec("dog", 1.0, "bird", 0.3), filter.Relevant))
	must(s.AppendFeedback("dirty", vec("stock", 1.0), filter.NotRelevant))
	must(s.AppendSubscribe("fresh-mm", "MM", nil))
	must(s.AppendFeedback("fresh-mm", vec("cat", 1.0), filter.Relevant))
	must(s.AppendUnsubscribe("gone"))
	must(s.AppendUnsubscribe("back"))
	must(s.AppendSubscribe("back", "MM", trainedProfile(t, 1)))
	must(s.AppendFeedback("back", vec("fish", 0.4, "boat", 1.0), filter.Relevant))
	must(s.AppendSubscribe("fresh-mmnd", "MMND", nil))
	must(s.AppendFeedback("fresh-mmnd", vec("tree", 1.0), filter.Relevant))
	must(s.AppendSubscribe("brief", "MM", nil))
	must(s.AppendFeedback("brief", vec("cat", 1.0), filter.Relevant))
	must(s.AppendUnsubscribe("brief"))
	must(s.AppendUnsubscribe("nobody"))
	checkpoint(2)
	if *updateGolden {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(checkpointGolden, []byte(b.String()), 0o644))
		return
	}
	want, err := os.ReadFile(checkpointGolden)
	must(err)
	if b.String() != string(want) {
		t.Errorf("the checkpoint wrote other bytes than %s:\n%s", checkpointGolden, b.String())
	}
}
