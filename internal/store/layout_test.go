package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// olderManifest is the manifest payload an older release wrote: epoch 7,
// then per lane its generation and, in version 2, its index offset plus one.
func olderManifest(version byte, gens, at []uint64) []byte {
	mf := binary.AppendUvarint([]byte{'M', 'M', 'L', 'N', version, 7}, uint64(len(gens)))
	for i, gen := range gens {
		mf = binary.AppendUvarint(mf, gen)
		if version == 2 {
			mf = binary.AppendUvarint(mf, at[i])
		}
	}
	return mf
}

// TestOpenRefusesOlderLayouts: a manifest naming four WAL lanes, a
// version-1 manifest (two lanes, segments without an index frame) and a
// version-2 manifest whose generation has no index offset each fail Open,
// read-write and ReadOnly, with an error naming the layout, and leave every
// byte of the directory as it was.
func TestOpenRefusesOlderLayouts(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		version    byte
		gens       []uint64
		indexed    bool // version 2: every segment's index offset is named
	}{
		{"version2_4lanes", "4 WAL lanes", 2, []uint64{3, 1, 0, 2}, true},
		{"version1_2lanes", "manifest version 1", 1, []uint64{1, 1}, false},
		{"version2_no_index", "generation 3 without a segment index", 2, []uint64{3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			put := func(name string, data []byte) {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			at := make([]uint64, len(tc.gens)) // 0: no index
			for id, gen := range tc.gens {
				user := []byte(fmt.Sprintf("user-%d", id))
				sub := appendLenBytes(appendLenBytes([]byte{byte(EventSubscribe)}, user), []byte("MM"))
				put(fmt.Sprintf("wal-%03d-%08d.log", id, gen), frameOf(t, appendLenBytes(sub, []byte(nil))))
				if gen == 0 {
					continue
				}
				payload := appendProfilePayload(nil, string(user), "MM", nil)
				seg := frameOf(t, payload)
				if tc.indexed {
					at[id] = uint64(len(seg)) + 1
					seg = append(seg, frameOf(t, appendSegIndex(nil, 1, appendSegIndexEntry(nil, string(user), uint32(len(payload)))))...)
				}
				put(fmt.Sprintf("seg-%03d-%08d.db", id, gen), seg)
			}
			put(manifestName, frameOf(t, olderManifest(tc.version, tc.gens, at)))
			before := snapshotDir(t, dir)
			for _, opts := range []Options{{}, {ReadOnly: true}} {
				s, err := Open(dir, opts)
				if err == nil {
					s.Close()
					t.Fatalf("ReadOnly=%v: the open succeeded", opts.ReadOnly)
				}
				if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "older release's layout") {
					t.Errorf("ReadOnly=%v: %v, want it to name %q as an older release's layout", opts.ReadOnly, err, tc.want)
				}
				if !reflect.DeepEqual(snapshotDir(t, dir), before) {
					t.Fatalf("ReadOnly=%v: the refused open changed the directory", opts.ReadOnly)
				}
			}
		})
	}
}

// snapshotDir is every file in dir by name, for comparing a directory
// before and after.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	snap := map[string]string{}
	entries, err := os.ReadDir(dir)
	for i := 0; err == nil && i < len(entries); i++ {
		var data []byte
		data, err = os.ReadFile(filepath.Join(dir, entries[i].Name()))
		snap[entries[i].Name()] = string(data)
	}
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
