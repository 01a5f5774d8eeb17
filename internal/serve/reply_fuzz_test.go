package serve

import "testing"

// FuzzParseReply: whatever bytes a shard reply carries, the client ends with
// an error or a status it knows — it never panics, and it installs a value
// in the hot-key cache only for a statusOK header followed by exactly one
// value buffer.
func FuzzParseReply(f *testing.F) {
	hdr := func(status byte) []byte { return []byte{status, 7, 0, 0, 0, 0, 0, 0, 0} }
	f.Add(hdr(statusOK), []byte("value"), uint8(2))   // found
	f.Add(hdr(statusNotFound), []byte(nil), uint8(1)) // not found
	f.Add(hdr(statusShed), []byte(nil), uint8(1))     // shed
	f.Add([]byte{statusOK, 7}, []byte("value"), uint8(2))
	f.Add(append(hdr(statusOK), 0), []byte("value"), uint8(2)) // 10-byte header
	f.Add(hdr(7), []byte("value"), uint8(2))                   // unknown status
	f.Fuzz(func(t *testing.T, header, value []byte, buffers uint8) {
		rets := [][]byte{header, value, value}[:buffers%4]
		for _, get := range []bool{true, false} {
			status, _, err := parseHeader(rets, get)
			if err == nil && status > statusShed {
				t.Fatalf("parseHeader(get=%v) accepted status %d", get, status)
			}
			if err == nil && (len(rets) == 2) != (get && status == statusOK) {
				t.Fatalf("parseHeader(get=%v) accepted status %d with %d buffers", get, status, len(rets))
			}
		}
		c := &Client{cache: newCache(16)}
		_, found, err := c.installReply("k", hashKey("k"), rets, true)
		wellFormed := len(rets) == 2 && len(header) == 9 && header[0] == statusOK
		if found != wellFormed || (found && err != nil) {
			t.Fatalf("installReply(%x, %d buffers) = found %v, err %v", header, len(rets), found, err)
		}
		if _, _, cached := c.cache.lookup("k", hashKey("k")); cached && !wellFormed {
			t.Fatalf("reply %x with %d buffers was installed in the cache", header, len(rets))
		}
	})
}
