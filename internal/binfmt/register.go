package binfmt

import (
	"io"

	"repro/internal/graph"
)

// The bbg format self-registers like the text formats, so everything
// built on the registry — repro.ReadGraph/WriteGraph, both CLIs, the
// daemon's sniffed request bodies, gzip transparency — handles binary
// graphs with no further dispatch code. Sniffing keys on the 8-byte
// magic; its embedded "\n" guarantees the text sniffers (which look at
// the first line) can never claim a bbg stream first.
func init() {
	graph.MustRegisterFormat(&graph.Format{
		Name:  "bbg",
		Exts:  []string{".bbg"},
		Desc:  "binary CSR graph container (magic `\\x89BBG`): little-endian arrays + interned label arena, CRC-32C per section, mmap-loadable; directedness is stored in the file (see `backbone -convert`)",
		Order: 40,
		Read: func(r io.Reader, directed bool) (*graph.Graph, error) {
			// directed is ignored: the file header is authoritative.
			return Read(r)
		},
		Write: func(w io.Writer, sel graph.Selection) error { return Write(w, sel.Graph()) },
		Sniff: func(prefix []byte) bool {
			return len(prefix) >= len(magic) && string(prefix[:len(magic)]) == magic
		},
	})
}
