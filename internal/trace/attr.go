package trace

import (
	"encoding/json"
	"strconv"
)

// attrKind discriminates the typed attribute payload.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one typed key/value pair attached to a span. The value lives in
// the field matching its kind, so attaching an int or float allocates
// nothing beyond the span's attrs slice growth.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	i64  int64
	f64  float64
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: kindString, str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, i64: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f64: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.i64 = 1
	}
	return a
}

// Value returns the attribute's payload as an interface value.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return a.i64
	case kindFloat:
		return a.f64
	case kindBool:
		return a.i64 != 0
	default:
		return a.str
	}
}

// MarshalJSON renders the attribute as {"key": ..., "value": ...} with the
// value in its native JSON type.
func (a Attr) MarshalJSON() ([]byte, error) {
	buf := append(make([]byte, 0, 32), `{"key":`...)
	buf = strconv.AppendQuote(buf, a.Key)
	buf = append(buf, `,"value":`...)
	switch a.kind {
	case kindInt:
		buf = strconv.AppendInt(buf, a.i64, 10)
	case kindFloat:
		v, err := json.Marshal(a.f64) // handles NaN/Inf rejection uniformly
		if err != nil {
			buf = append(buf, `null`...)
		} else {
			buf = append(buf, v...)
		}
	case kindBool:
		buf = strconv.AppendBool(buf, a.i64 != 0)
	default:
		buf = strconv.AppendQuote(buf, a.str)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON parses the {"key": ..., "value": ...} form back, so
// /tracez consumers can decode spans into this struct.
// Numbers decode as int when integral, float otherwise.
func (a *Attr) UnmarshalJSON(b []byte) error {
	var raw struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	switch v := raw.Value.(type) {
	case bool:
		*a = Bool(raw.Key, v)
	case float64:
		if v == float64(int64(v)) {
			*a = Int(raw.Key, int64(v))
		} else {
			*a = Float(raw.Key, v)
		}
	case string:
		*a = String(raw.Key, v)
	case nil:
		*a = Float(raw.Key, 0) // a NaN/Inf float marshalled as null
	default:
		*a = String(raw.Key, string(b))
	}
	return nil
}
