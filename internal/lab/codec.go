package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
)

// codec is the pooled buffer that fingerprints and result and memo blobs
// pass through: encode writes a value's JSON into buf and read fills buf
// from a blob file, so once the pool is warm neither allocates a buffer.
// print and blob hold the values Fingerprint, Get and Put code, so handing
// them to encoding/json boxes nothing, and hex holds a fingerprint's digits
// until they become its string.
type codec struct {
	buf   bytes.Buffer
	enc   *json.Encoder
	print print
	blob  blob
	hex   [2 * sha256.Size]byte
}

var codecs = sync.Pool{New: func() any {
	c := new(codec)
	c.enc = json.NewEncoder(&c.buf)
	return c
}}

func getCodec() *codec { return codecs.Get().(*codec) }

// put returns c to the pool, dropping what its values reference.
func (c *codec) put() {
	c.print, c.blob = print{}, blob{}
	codecs.Put(c)
}

// encode returns v's JSON exactly as json.Marshal writes it: the encoder's
// output minus the newline it appends. The bytes live in c's buffer until
// c is next used.
func (c *codec) encode(v any) ([]byte, error) {
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		return nil, err
	}
	b := c.buf.Bytes()
	return b[:len(b)-1], nil
}

// read returns the contents of the file at p, held in c's buffer until c
// is next used.
func (c *codec) read(p string) ([]byte, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return c.buf.Bytes(), nil
}

// sum returns the hex SHA-256 of data: a fingerprint.
func (c *codec) sum(data []byte) string {
	s := sha256.Sum256(data)
	hex.Encode(c.hex[:], s[:])
	return string(c.hex[:])
}
