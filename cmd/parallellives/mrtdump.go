package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/mrt"
)

const mrtdumpUsage = `parallellives mrtdump [-brief] [-count] file.mrt [file2.mrt ...]
cat file.mrt | parallellives mrtdump

Prints MRT archives (RFC 6396) in a human-readable form, in the spirit
of bgpdump: TABLE_DUMP_V2 peer index tables and RIB entries, and BGP4MP
update messages.
`

func mrtdumpVerb(fs *flag.FlagSet) verbBody {
	var (
		brief = fs.Bool("brief", false, "one line per route")
		count = fs.Bool("count", false, "print record counts only")
	)
	return func(ctx context.Context, paths []string, stdout, stderr io.Writer) error {
		if len(paths) == 0 {
			return mrtDump(ctx, stdout, os.Stdin, "stdin", *brief, *count)
		}
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			err = mrtDump(ctx, stdout, f, path, *brief, *count)
			f.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func mrtDump(ctx context.Context, out io.Writer, r io.Reader, name string, brief, count bool) error {
	reader := mrt.NewReader(r)
	var tbl mrt.PeerIndexTable
	var rec mrt.RIBRecord
	var msg mrt.BGP4MPMessage
	var upd bgp.Update
	havePeers := false
	counts := map[string]int{}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		h, body, err := reader.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ts := time.Unix(int64(h.Timestamp), 0).UTC().Format("2006-01-02 15:04:05")
		switch h.Type {
		case mrt.TypeTableDumpV2:
			switch h.Subtype {
			case mrt.SubtypePeerIndexTable:
				counts["peer-index-table"]++
				if err := mrt.DecodePeerIndexTable(&tbl, body); err != nil {
					return err
				}
				havePeers = true
				if count {
					continue
				}
				fmt.Fprintf(out, "%s PEER_INDEX_TABLE view=%q peers=%d\n", ts, tbl.ViewName, len(tbl.Peers))
				if !brief {
					for i, p := range tbl.Peers {
						fmt.Fprintf(out, "  peer %d: AS%s %s\n", i, p.AS, p.Addr)
					}
				}
			case mrt.SubtypeRIBIPv4Unicast, mrt.SubtypeRIBIPv6Unicast:
				counts["rib-entry"]++
				v6 := h.Subtype == mrt.SubtypeRIBIPv6Unicast
				if err := mrt.DecodeRIBRecord(&rec, body, v6); err != nil {
					return err
				}
				if count {
					continue
				}
				for _, e := range rec.Entries {
					upd.Reset()
					if err := bgp.DecodeAttrs(&upd, e.Attrs, true); err != nil {
						fmt.Fprintf(out, "%s RIB %v peer=%d <attr decode error: %v>\n",
							ts, rec.Prefix, e.PeerIndex, err)
						continue
					}
					peer := "?"
					if havePeers && int(e.PeerIndex) < len(tbl.Peers) {
						peer = "AS" + tbl.Peers[e.PeerIndex].AS.String()
					}
					fmt.Fprintf(out, "%s RIB %v from=%s path=%s\n", ts, rec.Prefix, peer, pathString(&upd))
				}
			}
		case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
			if h.Subtype != mrt.SubtypeBGP4MPMessage && h.Subtype != mrt.SubtypeBGP4MPMessageAS4 {
				counts["bgp4mp-other"]++
				continue
			}
			counts["bgp4mp-message"]++
			if err := mrt.DecodeBGP4MPMessage(&msg, body, h.Subtype); err != nil {
				return err
			}
			if count {
				continue
			}
			if err := bgp.DecodeUpdate(&upd, msg.Data, msg.FourByte); err != nil {
				fmt.Fprintf(out, "%s UPDATE peer=AS%s <decode error: %v>\n", ts, msg.PeerAS, err)
				continue
			}
			fmt.Fprintf(out, "%s UPDATE peer=AS%s announce=%v withdraw=%v path=%s\n",
				ts, msg.PeerAS, upd.Announced, upd.Withdrawn, pathString(&upd))
		default:
			counts[fmt.Sprintf("type-%d", h.Type)]++
		}
	}
	if count {
		fmt.Fprintf(out, "%s:\n", name)
		for k, v := range counts {
			fmt.Fprintf(out, "  %-18s %d\n", k, v)
		}
	}
	return nil
}

func pathString(u *bgp.Update) string {
	var flat [64]asn.ASN
	parts := make([]string, 0, 8)
	for _, a := range u.FlatPath(flat[:0]) {
		parts = append(parts, a.String())
	}
	return strings.Join(parts, " ")
}
