package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"mmprofile/internal/vsm"
)

// profileCodecVersion guards the binary layout; bump on change.
const profileCodecVersion = 1

// minVectorBytes is the least a profile vector can occupy: an empty vsm
// vector's one-byte header, the strength, and two one-byte varints.
const minVectorBytes = 1 + 8 + 1 + 1

func appendF64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func readF64(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("core: truncated float")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:8])), buf[8:], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, fmt.Errorf("core: truncated varint")
	}
	return v, buf[k:], nil
}

// MarshalBinary implements encoding.BinaryMarshaler: a compact,
// self-contained snapshot of the profile — options, feedback step,
// operation counters, and every profile vector with its strength — for the
// persistence layer (internal/store).
func (p *Profile) MarshalBinary() ([]byte, error) {
	buf := []byte{profileCodecVersion}
	for _, f := range []float64{
		p.opts.Theta, p.opts.Eta, p.opts.DecayC,
		p.opts.DeleteThreshold, p.opts.InitialStrength,
	} {
		buf = appendF64(buf, f)
	}
	flags := byte(0)
	if p.opts.DisableDecay {
		flags |= 1
	}
	if p.opts.DisableMerge {
		flags |= 2
	}
	if p.opts.UnweightedDecay {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(p.opts.MaxTerms))
	buf = binary.AppendUvarint(buf, uint64(p.opts.MaxVectors))
	buf = binary.AppendUvarint(buf, uint64(p.step))
	for _, c := range []int{
		p.ops.Created, p.ops.Incorporated, p.ops.Merged,
		p.ops.Deleted, p.ops.Annihilated, p.ops.Ignored,
	} {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.vectors)))
	for _, pv := range p.vectors {
		buf = vsm.AppendPacked(buf, pv.vec)
		buf = appendF64(buf, pv.strength)
		buf = binary.AppendUvarint(buf, uint64(pv.createdAt))
		buf = binary.AppendUvarint(buf, uint64(pv.incorporations))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, fully replacing
// the profile's state with the snapshot.
func (p *Profile) UnmarshalBinary(data []byte) error {
	_, err := p.UnmarshalFrom(data, nil)
	return err
}

// UnmarshalFrom is UnmarshalBinary with a source of vectors decoded
// before: a profile vector whose bytes src holds a vector for is taken from
// src, uncopied, not decoded again (vsm.DecodeNamed). It returns, in the
// profile's vector order, the digest of each vector's bytes — the names
// index.Index.SetPacked gives the entries they land in — or nil when src is
// nil, which decodes every vector and hashes none.
func (p *Profile) UnmarshalFrom(data []byte, src vsm.Source) ([]vsm.Digest, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("core: empty profile snapshot")
	}
	if data[0] != profileCodecVersion {
		return nil, fmt.Errorf("core: unsupported profile codec version %d", data[0])
	}
	buf := data[1:]

	var opts Options
	var err error
	for _, dst := range []*float64{
		&opts.Theta, &opts.Eta, &opts.DecayC,
		&opts.DeleteThreshold, &opts.InitialStrength,
	} {
		if *dst, buf, err = readF64(buf); err != nil {
			return nil, err
		}
	}
	if len(buf) < 1 {
		return nil, fmt.Errorf("core: truncated flags")
	}
	opts.DisableDecay = buf[0]&1 != 0
	opts.DisableMerge = buf[0]&2 != 0
	opts.UnweightedDecay = buf[0]&4 != 0
	buf = buf[1:]
	var u uint64
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, err
	}
	opts.MaxTerms = int(u)
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, err
	}
	opts.MaxVectors = int(u)
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", err)
	}

	if u, buf, err = readUvarint(buf); err != nil {
		return nil, err
	}
	step := int(u)
	var counts [6]int
	for i := range counts {
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		counts[i] = int(u)
	}

	if u, buf, err = readUvarint(buf); err != nil {
		return nil, err
	}
	// The count is input: allocate for what the bytes can hold, not for
	// what it says.
	if u > uint64(len(buf)/minVectorBytes) {
		return nil, fmt.Errorf("core: %d profile vectors in %d bytes", u, len(buf))
	}
	n := int(u)
	vectors := make([]*resident, 0, n)
	var names []vsm.Digest
	if src != nil {
		names = make([]vsm.Digest, n)
	}
	for i := 0; i < n; i++ {
		pv := &resident{id: uint64(i + 1)}
		if src != nil {
			pv.vec, names[i], buf, err = vsm.DecodeNamed(buf, src)
		} else {
			pv.vec, buf, err = vsm.DecodePacked(buf)
		}
		if err != nil {
			return nil, fmt.Errorf("core: vector %d: %w", i, err)
		}
		if pv.strength, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		if pv.strength <= 0 || math.IsNaN(pv.strength) || math.IsInf(pv.strength, 0) {
			return nil, fmt.Errorf("core: vector %d has invalid strength %v", i, pv.strength)
		}
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		pv.createdAt = int(u)
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		pv.incorporations = int(u)
		vectors = append(vectors, pv)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in profile snapshot", len(buf))
	}

	// The audit journal and vector ids are runtime-only diagnostics: the
	// snapshot carries neither, so restored vectors get fresh sequential
	// ids, the journal restarts empty, and its configured capacity (a
	// process-level setting, not profile state) carries over.
	opts.AuditCapacity = p.opts.AuditCapacity
	p.nextID = uint64(len(vectors))
	p.auditBuf = nil
	p.auditPos = 0
	p.auditSeq = 0
	p.endStep()

	p.opts = opts
	p.step = step
	p.ops = OpCounts{
		Created:      counts[0],
		Incorporated: counts[1],
		Merged:       counts[2],
		Deleted:      counts[3],
		Annihilated:  counts[4],
		Ignored:      counts[5],
	}
	p.vectors = vectors
	return names, nil
}
