package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// An older release sharded the journal into lanes: users hashed to one of N
// WAL lanes, each with its own segment and log (wal-<lane>-<gen>.log,
// seg-<lane>-<gen>.db), and a segment written under manifest version 1 has
// no index frame. This release keeps one journal, so Open folds such a
// directory into one lane before it serves anything (DESIGN.md §14).

// needsFold reports whether mf names more than one lane, or a segment
// without an index frame.
func needsFold(mf manifest) bool {
	return len(mf.gens) != 1 || (mf.gens[0] > 0 && mf.idx[0] == noIndex)
}

// fold rewrites the lanes mf names into one journal at a generation above
// every lane's: one segment holding every lane's verified segment records,
// copied frame by frame in lane order and ended by an index frame, and one
// WAL holding every lane's committed prefix in lane order. A user's records
// all lie in one lane, so per-user order is append order. Every lane is
// verified before anything is written: a user found in two lanes, or
// corruption before a WAL's tail or anywhere in a segment, fails the open
// with the directory untouched. The commit is the checkpoint's: stage,
// fsync, rename, directory fsync, one manifest rename; Open's cleanStrays
// then removes the old lanes. A crash before the manifest rename leaves the
// old layout intact, and the next writing open folds it again. Open puts
// the "store:" prefix on the errors.
func (s *Store) fold(mf manifest) error {
	var gen uint64
	owner := make(map[string]int) // user → the lane holding its records
	wals := make([][]byte, len(mf.gens))
	for id, g := range mf.gens {
		gen = max(gen, g+1)
		err := s.eachLaneRecord(mf, id, func(_ []byte, user string) error {
			if other, dup := owner[user]; dup {
				return fmt.Errorf("%q is in lanes %d and %d", user, other, id)
			}
			owner[user] = id
			return nil
		})
		if err != nil {
			return err
		}
		path := s.lanePath(walPrefix, id, g, ".log")
		data, err := s.readFileOrEmpty(path)
		if err != nil {
			return err
		}
		payloads, committed, err := scanRecords(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for i, p := range payloads {
			user, _, err := readLenBytes(p[min(1, len(p)):])
			if err != nil {
				return fmt.Errorf("%s record %d: %w", path, i, err)
			}
			if other, ok := owner[string(user)]; ok && other != id {
				return fmt.Errorf("%q is in lanes %d and %d", user, other, id)
			}
			owner[string(user)] = id
		}
		wals[id] = data[:committed]
	}

	var entries []byte
	var count int
	var idxOff int64
	err := s.stage(s.segPath(gen), func(w io.Writer) error {
		for id := range mf.gens {
			err := s.eachLaneRecord(mf, id, func(frame []byte, user string) error {
				if _, err := w.Write(frame); err != nil {
					return err
				}
				entries = appendSegIndexEntry(entries, user, uint32(len(frame)-8))
				count++
				idxOff += int64(len(frame))
				return nil
			})
			if err != nil {
				return err
			}
		}
		return writeRecord(w, encodeSegIndex(count, entries))
	})
	if err == nil {
		err = s.stage(s.walPath(gen), func(w io.Writer) error {
			for _, data := range wals {
				if _, err := w.Write(data); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil {
		err = s.fsys.SyncDir(s.dir)
	}
	if err == nil {
		err = s.writeManifest(mf.epoch+1, gen, idxOff)
	}
	if err != nil {
		return err
	}
	s.epoch.Store(mf.epoch + 1)
	s.gen, s.idxOff = gen, idxOff
	return nil
}

// eachLaneRecord streams lane id's segment, as mf names it, through one
// buffer and hands fn each verified frame and the user it holds. The
// records must tile the segment up to its index frame, or to its end when
// it has none; the index itself is not read, because fold writes a new one.
func (s *Store) eachLaneRecord(mf manifest, id int, fn func(frame []byte, user string) error) error {
	if mf.gens[id] == 0 {
		return nil // generation 0: no segment
	}
	path := s.lanePath(segPrefix, id, mf.gens[id], ".db")
	f, err := s.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	end := mf.idx[id]
	if end == noIndex {
		end = math.MaxInt64
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, end), 64<<10)
	var frame []byte
	for off := int64(0); ; off += int64(len(frame)) {
		if frame, err = readRecord(r, frame); errors.Is(err, io.EOF) {
			return nil
		}
		var rec ProfileRecord
		if err == nil {
			rec, err = decodeProfileRecord(frame[8:])
		}
		if err == nil {
			err = fn(frame, rec.User)
		}
		if err != nil {
			return fmt.Errorf("%s offset %d: %w", path, off, err)
		}
	}
}
