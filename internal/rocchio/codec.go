package rocchio

import (
	"encoding/binary"
	"fmt"

	"mmprofile/internal/vsm"
)

const (
	rocchioCodecVersion = 1
	nrnCodecVersion     = 1
)

// MarshalBinary implements encoding.BinaryMarshaler: the profile vector,
// group configuration, and any buffered (not yet applied) judgments, so a
// restored learner resumes mid-group exactly where it stopped.
func (r *Rocchio) MarshalBinary() ([]byte, error) {
	buf := []byte{rocchioCodecVersion}
	buf = binary.AppendUvarint(buf, uint64(len(r.name)))
	buf = append(buf, r.name...)
	buf = binary.AppendUvarint(buf, uint64(r.groupSize))
	buf = binary.AppendUvarint(buf, uint64(r.maxTerms))
	buf = binary.AppendUvarint(buf, uint64(r.updates))
	buf = vsm.AppendVector(buf, r.profile)
	buf = binary.AppendUvarint(buf, uint64(len(r.rel)))
	for _, v := range r.rel {
		buf = vsm.AppendVector(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.nonRel)))
	for _, v := range r.nonRel {
		buf = vsm.AppendVector(buf, v)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (r *Rocchio) UnmarshalBinary(data []byte) error {
	if len(data) < 1 || data[0] != rocchioCodecVersion {
		return fmt.Errorf("rocchio: bad snapshot version")
	}
	buf := data[1:]
	read := func() (uint64, error) {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return 0, fmt.Errorf("rocchio: truncated snapshot")
		}
		buf = buf[k:]
		return v, nil
	}
	n, err := read()
	if err != nil {
		return err
	}
	if uint64(len(buf)) < n {
		return fmt.Errorf("rocchio: truncated name")
	}
	name := string(buf[:n])
	buf = buf[n:]
	group, err := read()
	if err != nil {
		return err
	}
	maxTerms, err := read()
	if err != nil {
		return err
	}
	updates, err := read()
	if err != nil {
		return err
	}
	profile, rest, err := vsm.DecodeVector(buf)
	if err != nil {
		return fmt.Errorf("rocchio: profile vector: %w", err)
	}
	buf = rest
	readVecs := func() ([]vsm.Vector, error) {
		count, err := read()
		if err != nil {
			return nil, err
		}
		if count > uint64(len(buf)) { // a vector is at least its one-byte header
			return nil, fmt.Errorf("rocchio: %d buffered vectors in %d bytes", count, len(buf))
		}
		out := make([]vsm.Vector, 0, count)
		for i := uint64(0); i < count; i++ {
			v, rest, err := vsm.DecodeVector(buf)
			if err != nil {
				return nil, fmt.Errorf("rocchio: buffered vector %d: %w", i, err)
			}
			buf = rest
			out = append(out, v)
		}
		return out, nil
	}
	rel, err := readVecs()
	if err != nil {
		return err
	}
	nonRel, err := readVecs()
	if err != nil {
		return err
	}
	if len(buf) != 0 {
		return fmt.Errorf("rocchio: %d trailing bytes", len(buf))
	}
	r.name = name
	r.groupSize = int(group)
	r.maxTerms = int(maxTerms)
	r.updates = int(updates)
	r.profile = profile
	r.norm = profile.Norm()
	r.rel = rel
	r.nonRel = nonRel
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for NRN.
func (n *NRN) MarshalBinary() ([]byte, error) {
	buf := []byte{nrnCodecVersion}
	buf = binary.AppendUvarint(buf, uint64(len(n.vectors)))
	for _, v := range n.vectors {
		buf = vsm.AppendVector(buf, v)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for NRN.
func (n *NRN) UnmarshalBinary(data []byte) error {
	if len(data) < 1 || data[0] != nrnCodecVersion {
		return fmt.Errorf("rocchio: bad NRN snapshot version")
	}
	buf := data[1:]
	count, k := binary.Uvarint(buf)
	if k <= 0 || count > uint64(len(buf)-k) { // a vector is at least its one-byte header
		return fmt.Errorf("rocchio: bad NRN vector count")
	}
	buf = buf[k:]
	vectors := make([]vsm.Vector, 0, count)
	for i := uint64(0); i < count; i++ {
		v, rest, err := vsm.DecodeVector(buf)
		if err != nil {
			return fmt.Errorf("rocchio: NRN vector %d: %w", i, err)
		}
		buf = rest
		vectors = append(vectors, v)
	}
	if len(buf) != 0 {
		return fmt.Errorf("rocchio: %d trailing bytes in NRN snapshot", len(buf))
	}
	n.vectors = vectors
	return nil
}
