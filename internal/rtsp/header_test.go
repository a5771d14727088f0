package rtsp

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"realtracer/internal/snap"
)

// refMessage is Message as it stood while its headers were a map, with the
// Set, Get, Marshal, WireSize and Parse of that time kept verbatim: the
// reference the header list is checked against.
type refMessage struct {
	Request bool
	Method  string
	URL     string
	Status  int
	Reason  string
	CSeq    int
	Header  map[string]string
	Body    []byte
}

func (m *refMessage) Set(key, value string) {
	if m.Header == nil {
		m.Header = map[string]string{}
	}
	m.Header[canonical(key)] = value
}

func (m *refMessage) Get(key string) string { return m.Header[canonical(key)] }

func (m *refMessage) Marshal() []byte {
	var b bytes.Buffer
	if m.Request {
		fmt.Fprintf(&b, "%s %s %s\r\n", m.Method, m.URL, Version)
	} else {
		reason := m.Reason
		if reason == "" {
			reason = StatusText(m.Status)
		}
		fmt.Fprintf(&b, "%s %d %s\r\n", Version, m.Status, reason)
	}
	fmt.Fprintf(&b, "CSeq: %d\r\n", m.CSeq)
	if len(m.Body) > 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(m.Body))
	}
	keys := make([]string, 0, len(m.Header))
	for k := range m.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, m.Header[k])
	}
	b.WriteString("\r\n")
	b.Write(m.Body)
	return b.Bytes()
}

func (m *refMessage) WireSize() int {
	n := len(Version) + len("  \r\n")
	switch {
	case m.Request:
		n += len(m.Method) + len(m.URL)
	case m.Reason == "":
		n += decWidth(m.Status) + len(StatusText(m.Status))
	default:
		n += decWidth(m.Status) + len(m.Reason)
	}
	n += len("CSeq: \r\n") + decWidth(m.CSeq)
	if len(m.Body) > 0 {
		n += len("Content-Length: \r\n") + decWidth(len(m.Body))
	}
	for k, v := range m.Header {
		n += len(k) + len(": \r\n") + len(v)
	}
	return n + len("\r\n") + len(m.Body)
}

func parseRef(data []byte) (*refMessage, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, ErrMalformed
	}
	line = strings.TrimRight(line, "\r\n")
	m := &refMessage{Header: map[string]string{}}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 3 {
		return nil, ErrMalformed
	}
	if strings.HasPrefix(parts[0], "RTSP/") {
		m.Request = false
		status, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, ErrMalformed
		}
		m.Status = status
		m.Reason = parts[2]
	} else {
		m.Request = true
		m.Method = parts[0]
		m.URL = parts[1]
		if !strings.HasPrefix(parts[2], "RTSP/") {
			return nil, ErrMalformed
		}
	}
	contentLength := 0
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return nil, ErrMalformed
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		i := strings.Index(h, ":")
		if i < 0 {
			return nil, ErrMalformed
		}
		key := canonical(strings.TrimSpace(h[:i]))
		val := strings.TrimSpace(h[i+1:])
		switch key {
		case "Cseq":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, ErrMalformed
			}
			m.CSeq = n
		case "Content-Length":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, ErrMalformed
			}
			contentLength = n
		default:
			m.Header[key] = val
		}
	}
	if contentLength > 0 {
		if contentLength > len(data) {
			return nil, ErrTruncatedBody
		}
		body := make([]byte, contentLength)
		n, _ := r.Read(body)
		for n < contentLength {
			more, err := r.Read(body[n:])
			if more == 0 || err != nil {
				return nil, ErrTruncatedBody
			}
			n += more
		}
		m.Body = body
	}
	return m, nil
}

// sameHeaders fails t unless m says what ref says: the same wire bytes, the
// same size, as many headers, and the same value for every key — asked for
// as ref holds it and in lower case.
func sameHeaders(t *testing.T, what string, m *Message, ref *refMessage) {
	t.Helper()
	if got, want := m.Marshal(), ref.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("%s: Marshal wrote %q, the map-based message %q", what, got, want)
	}
	if got, want := m.WireSize(), ref.WireSize(); got != want {
		t.Fatalf("%s: WireSize %d, the map-based message's %d", what, got, want)
	}
	if got, want := len(m.hdr.list()), len(ref.Header); got != want {
		t.Fatalf("%s: %d headers, the map-based message holds %d", what, got, want)
	}
	for k, v := range ref.Header {
		if got := m.Get(k); got != v {
			t.Fatalf("%s: Get(%q) = %q, the map-based message says %q", what, k, got, v)
		}
		if got := m.Get(strings.ToLower(k)); got != ref.Get(strings.ToLower(k)) {
			t.Fatalf("%s: Get(%q) = %q, the map-based message says %q", what, strings.ToLower(k), got, ref.Get(strings.ToLower(k)))
		}
	}
}

// TestHeaderListMatchesMap: Set sequences the map took in its stride — a
// key set again (the last value wins), more keys than fit inline, an empty
// value, spellings of one key that canonicalize onto each other, a value
// replaced after the list spilled — leave a message that marshals, sizes,
// answers Get and parses back exactly as the map-based message did.
func TestHeaderListMatchesMap(t *testing.T) {
	for _, row := range []struct {
		name string
		sets [][2]string
	}{
		{"none", nil},
		{"duplicate, last wins", [][2]string{{"Session", "a"}, {"Range", "npt=0-"}, {"Session", "b"}, {"Session", "c"}}},
		{"past inline capacity", [][2]string{{"Z-Last", "1"}, {"A-First", "2"}, {"Middle", "3"}, {"B", "4"}, {"Y", "5"}, {"C", "6"}, {"Aa", "7"}}},
		{"exactly inline capacity", [][2]string{{"Transport", "proto=udp"}, {"Bandwidth", "350"}, {"Session", "sess-1"}}},
		{"empty value", [][2]string{{"X-Empty", ""}, {"Range", "npt=0-"}, {"X-Empty", ""}}},
		{"canonicalizes onto another", [][2]string{{"content-type", "a"}, {"Content-Type", "b"}, {"CONTENT-TYPE", "c"}, {"transport", "d"}}},
		{"replace after spill", [][2]string{{"D", "1"}, {"C", "2"}, {"B", "3"}, {"A", "4"}, {"B", "x"}, {"a", "y"}, {"E", ""}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := msgs.Request(MethodSetup, "rtsp://cnn.us/clip000.rm", 3)
			ref := &refMessage{Request: true, Method: MethodSetup, URL: "rtsp://cnn.us/clip000.rm", CSeq: 3}
			for i, kv := range row.sets {
				m.Set(kv[0], kv[1])
				ref.Set(kv[0], kv[1])
				sameHeaders(t, fmt.Sprintf("after set %d", i+1), m, ref)
			}
			back, err := Parse(m.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			sameHeaders(t, "parsed back", back, ref)
		})
	}
}

// syncHeaders encodes a message with the given header pairs, written in the
// order given, as Message.Sync lays a message out.
func syncHeaders(pairs [][2]string) []byte {
	var b bytes.Buffer
	c := snap.NewEncoder(&b)
	m := msgs.Request(MethodPlay, "rtsp://cnn.us/clip000.rm", 4)
	c.Tag("rtsp")
	c.Bool(&m.Request)
	c.Str(&m.Method)
	c.Str(&m.URL)
	c.Int(&m.Status)
	c.Str(&m.Reason)
	c.Int(&m.CSeq)
	n := len(pairs)
	c.Len(&n)
	for _, kv := range pairs {
		c.Str(&kv[0])
		c.Str(&kv[1])
	}
	c.Bytes(&m.Body)
	return b.Bytes()
}

// TestSyncHeaderOrder: the header walk writes what snap.Map wrote for the
// map — a count, then the pairs in key order — and decoding takes back only
// a list Set could have built: keys ascending, each once. Anything else is
// refused with one rtsp error, never a panic and never a message.
func TestSyncHeaderOrder(t *testing.T) {
	m := msgs.Request(MethodPlay, "rtsp://cnn.us/clip000.rm", 4)
	pairs := [][2]string{{"Range", "npt=0-"}, {"Session", "sess-1"}, {"Bandwidth", "350"}, {"X-Empty", ""}, {"Accept", "application/sdp"}}
	for _, kv := range pairs {
		m.Set(kv[0], kv[1])
	}
	var b bytes.Buffer
	m.Sync(snap.NewEncoder(&b))
	sorted := slices.Clone(pairs)
	slices.SortFunc(sorted, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	if want := syncHeaders(sorted); !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("Sync wrote %x, want the count and sorted pairs %x", b.Bytes(), want)
	}
	for _, row := range []struct {
		name  string
		pairs [][2]string
		bad   bool
	}{
		{"sorted, spilled", sorted, false},
		{"sorted, inline", sorted[:2], false},
		{"none", nil, false},
		{"unsorted", [][2]string{{"Session", "a"}, {"Range", "b"}}, true},
		{"duplicate", [][2]string{{"Range", "a"}, {"Range", "b"}}, true},
		{"duplicate past inline", [][2]string{{"A", "1"}, {"B", "2"}, {"C", "3"}, {"D", "4"}, {"D", "5"}}, true},
		{"unsorted past inline", [][2]string{{"A", "1"}, {"B", "2"}, {"C", "3"}, {"E", "4"}, {"D", "5"}}, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var got Message
			c := snap.NewDecoder(syncHeaders(row.pairs))
			got.Sync(c)
			switch err := c.Err(); {
			case row.bad && (err == nil || !strings.HasPrefix(err.Error(), "rtsp: ")):
				t.Fatalf("decoding headers %q: error %v, want one rtsp: refusal", row.pairs, err)
			case !row.bad && err != nil:
				t.Fatalf("decoding headers %q: %v", row.pairs, err)
			case !row.bad:
				ref := &refMessage{Request: true, Method: MethodPlay, URL: "rtsp://cnn.us/clip000.rm", CSeq: 4}
				for _, kv := range row.pairs {
					ref.Set(kv[0], kv[1])
				}
				sameHeaders(t, "decoded", &got, ref)
			}
		})
	}
}
