//! A hand-rolled pcapng (RFC draft-ietf-opsawg-pcapng) writer and
//! reader — just the four block types a capture needs, little-endian,
//! no external dependencies. Files written here open in Wireshark and
//! tshark; one Interface Description Block per simulated run (named
//! after the run label, nanosecond timestamp resolution) keeps
//! multi-run experiment captures in a single file.
//!
//! [`PcapngStream`] is the one reader. It pulls blocks from any
//! [`Read`] source, so memory is bounded by the largest block (at most
//! [`MAX_STREAM_BLOCK`]) rather than the file. Structural corruption in
//! bytes that are present is an error; a file cut mid-block (capture
//! process killed) yields every complete block and then ends with a
//! warning. Callers that must not accept a partial capture, such as
//! `reproduce inspect`, treat that warning as fatal.
//!
//! Multi-section files are accepted: a new Section Header Block
//! restarts the on-wire interface numbering, and the reader remaps
//! packet interface ids onto one global list, so concatenated captures
//! just work.

use std::io::Read;

/// Section Header Block type.
const SHB_TYPE: u32 = 0x0A0D_0D0A;
/// Byte-order magic written (and required) little-endian.
const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;
/// Interface Description Block type.
const IDB_TYPE: u32 = 0x0000_0001;
/// Enhanced Packet Block type.
const EPB_TYPE: u32 = 0x0000_0006;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u16 = 1;
/// Option codes.
const OPT_END: u16 = 0;
const OPT_COMMENT: u16 = 1;
const OPT_SHB_USERAPPL: u16 = 4;
const OPT_IF_NAME: u16 = 2;
const OPT_IF_TSRESOL: u16 = 9;

fn pad4(len: usize) -> usize {
    (4 - len % 4) % 4
}

/// Serializes one option (code, raw value padded to 4 bytes).
fn push_option(body: &mut Vec<u8>, code: u16, value: &[u8]) {
    body.extend_from_slice(&code.to_le_bytes());
    body.extend_from_slice(&(value.len() as u16).to_le_bytes());
    body.extend_from_slice(value);
    body.extend(std::iter::repeat(0u8).take(pad4(value.len())));
}

/// Incrementally builds a single-section pcapng file.
#[derive(Debug)]
pub struct PcapngWriter {
    out: Vec<u8>,
    interfaces: u32,
}

impl PcapngWriter {
    /// Starts a file whose Section Header Block names `application` in
    /// its `shb_userappl` option.
    pub fn new(application: &str) -> Self {
        let mut body = Vec::new();
        body.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes()); // major version
        body.extend_from_slice(&0u16.to_le_bytes()); // minor version
        body.extend_from_slice(&u64::MAX.to_le_bytes()); // section length: unknown
        push_option(&mut body, OPT_SHB_USERAPPL, application.as_bytes());
        push_option(&mut body, OPT_END, &[]);
        let mut writer = PcapngWriter { out: Vec::new(), interfaces: 0 };
        writer.push_block(SHB_TYPE, &body);
        writer
    }

    fn push_block(&mut self, block_type: u32, body: &[u8]) {
        debug_assert_eq!(body.len() % 4, 0, "block bodies are pre-padded");
        let total = (body.len() + 12) as u32;
        self.out.extend_from_slice(&block_type.to_le_bytes());
        self.out.extend_from_slice(&total.to_le_bytes());
        self.out.extend_from_slice(body);
        self.out.extend_from_slice(&total.to_le_bytes());
    }

    /// Adds an Ethernet interface named `name` with nanosecond
    /// timestamps and no snap limit; returns its interface id.
    pub fn add_interface(&mut self, name: &str) -> u32 {
        let mut body = Vec::new();
        body.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes()); // reserved
        body.extend_from_slice(&0u32.to_le_bytes()); // snaplen: unlimited
        push_option(&mut body, OPT_IF_NAME, name.as_bytes());
        push_option(&mut body, OPT_IF_TSRESOL, &[9]); // 10^-9 s
        push_option(&mut body, OPT_END, &[]);
        self.push_block(IDB_TYPE, &body);
        let id = self.interfaces;
        self.interfaces += 1;
        id
    }

    /// Appends one Enhanced Packet Block on `interface` at `ts_ns`
    /// with `comment` as its `opt_comment`.
    pub fn add_packet(&mut self, interface: u32, ts_ns: u64, bytes: &[u8], comment: &str) {
        let mut body = Vec::new();
        body.extend_from_slice(&interface.to_le_bytes());
        body.extend_from_slice(&((ts_ns >> 32) as u32).to_le_bytes());
        body.extend_from_slice(&(ts_ns as u32).to_le_bytes());
        body.extend_from_slice(&(bytes.len() as u32).to_le_bytes()); // captured
        body.extend_from_slice(&(bytes.len() as u32).to_le_bytes()); // original
        body.extend_from_slice(bytes);
        body.extend(std::iter::repeat(0u8).take(pad4(bytes.len())));
        if !comment.is_empty() {
            push_option(&mut body, OPT_COMMENT, comment.as_bytes());
            push_option(&mut body, OPT_END, &[]);
        }
        self.push_block(EPB_TYPE, &body);
    }

    /// Finishes the file and returns its bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Scans a block's options region for `(code, value)` pairs.
fn options(mut region: &[u8]) -> Vec<(u16, Vec<u8>)> {
    let mut found = Vec::new();
    while region.len() >= 4 {
        let code = u16::from_le_bytes([region[0], region[1]]);
        let len = u16::from_le_bytes([region[2], region[3]]) as usize;
        region = &region[4..];
        if code == OPT_END || region.len() < len {
            break;
        }
        found.push((code, region[..len].to_vec()));
        let advance = (len + pad4(len)).min(region.len());
        region = &region[advance..];
    }
    found
}

/// Nanoseconds per tick for an `if_tsresol` byte: a power of ten when
/// the MSB is clear, a power of two when set. Sub-nanosecond
/// resolutions floor to 1 ns per tick.
fn tsresol_to_ns(tsresol: u8) -> u64 {
    if tsresol & 0x80 == 0 {
        let exp = u32::from(tsresol);
        if exp >= 9 {
            1
        } else {
            10u64.pow(9 - exp)
        }
    } else {
        let exp = u32::from(tsresol & 0x7F);
        if exp >= 30 {
            1
        } else {
            1_000_000_000u64 >> exp
        }
    }
}

/// Blocks larger than this are treated as corruption by the streaming
/// reader: the length field arrives before the data, and a flipped bit
/// must not become a multi-gigabyte allocation.
pub const MAX_STREAM_BLOCK: usize = 16 << 20;

/// Counters a [`PcapngStream`] keeps while pulling blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Sections (SHBs) seen.
    pub sections: u64,
    /// Blocks of any type read completely.
    pub blocks: u64,
    /// Enhanced Packet Blocks yielded.
    pub packets: u64,
    /// Blocks of types this reader does not understand (skipped).
    pub unknown_blocks: u64,
    /// Total bytes consumed from the source, trailers included.
    pub bytes: u64,
}

/// One packet lent out of a [`PcapngStream`]; `bytes` and `comment`
/// borrow the stream's internal block buffer and are valid until the
/// next [`next_packet`](PcapngStream::next_packet) call.
#[derive(Debug)]
pub struct StreamPacket<'a> {
    /// Global interface index (see [`PcapngStream::interfaces`]).
    pub interface: usize,
    /// Timestamp in nanoseconds (scaled from the interface's tsresol).
    pub ts_ns: u64,
    /// The captured octets.
    pub bytes: &'a [u8],
    /// The packet's `opt_comment`, empty when absent or not UTF-8.
    pub comment: &'a str,
}

/// What one internal block step produced (kept borrow-free so the
/// packet slice can be carved out after the read loop).
enum Step {
    /// An EPB landed in the buffer: `(interface, ts_ns, data range, comment range)`.
    Packet(usize, u64, std::ops::Range<usize>, std::ops::Range<usize>),
    /// A non-packet block was consumed.
    Skip,
    /// Clean or truncated end of input.
    End,
}

/// A pull-based pcapng reader over any [`Read`] source.
///
/// Memory use is bounded by the largest single block, independent of
/// file length — the ingest path runs arbitrarily large captures (or
/// stdin pipes) through it. See the module docs for its truncation
/// contract.
#[derive(Debug)]
pub struct PcapngStream<R> {
    input: R,
    /// Reusable body buffer for the block being decoded.
    buf: Vec<u8>,
    interfaces: Vec<String>,
    tsresols: Vec<u8>,
    section_base: usize,
    seen_shb: bool,
    warnings: Vec<String>,
    done: bool,
    offset: u64,
    stats: StreamStats,
}

impl<R: Read> PcapngStream<R> {
    /// Wraps a byte source. Nothing is read until the first
    /// [`next_packet`](Self::next_packet) call.
    pub fn new(input: R) -> Self {
        PcapngStream {
            input,
            buf: Vec::new(),
            interfaces: Vec::new(),
            tsresols: Vec::new(),
            section_base: 0,
            seen_shb: false,
            warnings: Vec::new(),
            done: false,
            offset: 0,
            stats: StreamStats::default(),
        }
    }

    /// Interface names seen so far, across all sections, in global-id
    /// order. Grows as IDBs are read; a yielded packet's `interface`
    /// always indexes into it.
    pub fn interfaces(&self) -> &[String] {
        &self.interfaces
    }

    /// Non-fatal problems hit so far (truncated tail). At most one per
    /// stream today, but future leniencies may add more.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Reader statistics so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Pulls the next Enhanced Packet Block, transparently consuming
    /// section headers, interface descriptions, and unknown blocks.
    /// Returns `Ok(None)` at end of input — including a *truncated* end,
    /// which is additionally surfaced via [`warnings`](Self::warnings).
    ///
    /// # Errors
    ///
    /// Structural corruption in fully-present bytes is still an error:
    /// bad leading block, bad byte-order magic, implausible or
    /// misaligned block lengths, mismatched trailers, packets citing
    /// unknown interfaces.
    pub fn next_packet(&mut self) -> Result<Option<StreamPacket<'_>>, String> {
        let (interface, ts_ns, data, comment) = loop {
            if self.done {
                return Ok(None);
            }
            match self.step()? {
                Step::Packet(interface, ts_ns, data, comment) => {
                    break (interface, ts_ns, data, comment)
                }
                Step::Skip => continue,
                Step::End => {
                    self.done = true;
                    if !self.seen_shb && self.warnings.is_empty() {
                        return Err("empty capture".to_string());
                    }
                    return Ok(None);
                }
            }
        };
        let comment = std::str::from_utf8(&self.buf[comment]).unwrap_or("");
        Ok(Some(StreamPacket { interface, ts_ns, bytes: &self.buf[data], comment }))
    }

    /// Reads exactly `buf.len()` bytes. `Ok(n)` with `n < buf.len()`
    /// means the source ended early (n may be 0: clean EOF).
    fn read_fully(&mut self, scratch: &mut [u8]) -> Result<usize, String> {
        let mut got = 0;
        while got < scratch.len() {
            match self.input.read(&mut scratch[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(format!("read error at offset {}: {e}", self.offset + got as u64))
                }
            }
        }
        self.offset += got as u64;
        self.stats.bytes += got as u64;
        Ok(got)
    }

    fn truncated(&mut self, what: &str) -> Step {
        self.warnings.push(format!(
            "capture truncated {what} at offset {}: keeping the {} complete packet(s) before it",
            self.offset, self.stats.packets
        ));
        Step::End
    }

    /// Consumes one block from the source.
    fn step(&mut self) -> Result<Step, String> {
        let block_start = self.offset;
        let mut head = [0u8; 8];
        let got = self.read_fully(&mut head)?;
        if got == 0 {
            return Ok(Step::End); // clean end between blocks
        }
        if got < head.len() {
            return Ok(self.truncated("inside a block header"));
        }
        let block_type = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        let total_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
        if total_len < 12 || total_len % 4 != 0 {
            return Err(format!("bad block length {total_len} at offset {block_start}"));
        }
        if total_len > MAX_STREAM_BLOCK {
            return Err(format!(
                "implausible block length {total_len} at offset {block_start} (max {MAX_STREAM_BLOCK})"
            ));
        }
        self.buf.resize(total_len - 12, 0);
        let mut scratch = std::mem::take(&mut self.buf);
        let got = self.read_fully(&mut scratch)?;
        self.buf = scratch;
        if got < total_len - 12 {
            return Ok(self.truncated("inside a block body"));
        }
        let mut trailer = [0u8; 4];
        let got = self.read_fully(&mut trailer)?;
        if got < trailer.len() {
            return Ok(self.truncated("inside a block trailer"));
        }
        if u32::from_le_bytes(trailer) as usize != total_len {
            return Err(format!("mismatched block trailer at offset {block_start}"));
        }
        self.stats.blocks += 1;
        if !self.seen_shb && block_type != SHB_TYPE {
            return Err("file does not start with a section header block".to_string());
        }
        match block_type {
            SHB_TYPE => {
                if self.buf.len() < 4 {
                    return Err("truncated section header".to_string());
                }
                let magic = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
                if magic != BYTE_ORDER_MAGIC {
                    return Err(format!(
                        "unsupported byte-order magic {magic:#010x} (expected little-endian)"
                    ));
                }
                self.seen_shb = true;
                self.section_base = self.interfaces.len();
                self.stats.sections += 1;
                Ok(Step::Skip)
            }
            IDB_TYPE => {
                if self.buf.len() < 8 {
                    return Err("truncated interface description block".to_string());
                }
                let opts = options(&self.buf[8..]);
                let name = opts
                    .iter()
                    .find(|(code, _)| *code == OPT_IF_NAME)
                    .map(|(_, v)| String::from_utf8_lossy(v).into_owned())
                    .unwrap_or_default();
                let tsresol = opts
                    .iter()
                    .find(|(code, _)| *code == OPT_IF_TSRESOL)
                    .and_then(|(_, v)| v.first().copied())
                    .unwrap_or(6); // the spec default: microseconds
                self.interfaces.push(name);
                self.tsresols.push(tsresol);
                Ok(Step::Skip)
            }
            EPB_TYPE => {
                if self.buf.len() < 20 {
                    return Err("truncated enhanced packet block".to_string());
                }
                let word =
                    |i: usize| u32::from_le_bytes(self.buf[i..i + 4].try_into().expect("4 bytes"));
                let local = word(0) as usize;
                let interface = self.section_base + local;
                if interface >= self.interfaces.len() {
                    return Err(format!("packet references unknown interface {local}"));
                }
                let ts = (u64::from(word(4)) << 32) | u64::from(word(8));
                let captured = word(12) as usize;
                if self.buf.len() < 20 + captured {
                    return Err("packet data exceeds block".to_string());
                }
                let opts_at = (20 + captured + pad4(captured)).min(self.buf.len());
                let comment = options(&self.buf[opts_at..])
                    .into_iter()
                    .find(|(code, _)| *code == OPT_COMMENT)
                    .map(|(_, value)| value)
                    .unwrap_or_default();
                // Relocate the comment into the buffer's tail so the
                // yielded ranges both borrow `self.buf`.
                let comment_at = self.buf.len();
                self.buf.extend_from_slice(&comment);
                let ts_ns = ts.saturating_mul(tsresol_to_ns(self.tsresols[interface]));
                self.stats.packets += 1;
                Ok(Step::Packet(
                    interface,
                    ts_ns,
                    20..20 + captured,
                    comment_at..comment_at + comment.len(),
                ))
            }
            _ => {
                self.stats.unknown_blocks += 1;
                Ok(Step::Skip)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's exact framing, byte for byte — the on-disk format
    /// is a public contract with Wireshark/tshark, so it is pinned as
    /// golden bytes, not just round-tripped.
    #[test]
    fn golden_bytes_shb_idb_epb() {
        let mut w = PcapngWriter::new("app");
        let iface = w.add_interface("run-a");
        assert_eq!(iface, 0);
        w.add_packet(0, 0x1_0000_0001, &[0xAA, 0xBB, 0xCC], "c");
        let bytes = w.finish();

        // --- SHB ---
        assert_eq!(&bytes[0..4], &[0x0A, 0x0D, 0x0D, 0x0A], "SHB block type");
        let shb_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        assert_eq!(&bytes[8..12], &[0x4D, 0x3C, 0x2B, 0x1A], "little-endian byte-order magic");
        assert_eq!(&bytes[12..16], &[1, 0, 0, 0], "version 1.0");
        assert_eq!(&bytes[16..24], &[0xFF; 8], "section length unknown");
        // shb_userappl option: code 4, len 3, "app" + 1 pad byte.
        assert_eq!(&bytes[24..32], &[4, 0, 3, 0, b'a', b'p', b'p', 0]);
        assert_eq!(&bytes[32..36], &[0, 0, 0, 0], "opt_endofopt");
        assert_eq!(
            u32::from_le_bytes(bytes[shb_len - 4..shb_len].try_into().unwrap()) as usize,
            shb_len,
            "trailing block length mirrors the leading one"
        );
        assert_eq!(shb_len, 40);

        // --- IDB ---
        let idb = &bytes[shb_len..];
        assert_eq!(&idb[0..4], &[1, 0, 0, 0], "IDB block type");
        let idb_len = u32::from_le_bytes(idb[4..8].try_into().unwrap()) as usize;
        assert_eq!(&idb[8..10], &[1, 0], "LINKTYPE_ETHERNET");
        assert_eq!(&idb[10..12], &[0, 0], "reserved");
        assert_eq!(&idb[12..16], &[0, 0, 0, 0], "snaplen unlimited");
        // if_name: code 2, len 5, "run-a" + 3 pad.
        assert_eq!(&idb[16..28], &[2, 0, 5, 0, b'r', b'u', b'n', b'-', b'a', 0, 0, 0]);
        // if_tsresol: code 9, len 1, value 9 (nanoseconds) + 3 pad.
        assert_eq!(&idb[28..36], &[9, 0, 1, 0, 9, 0, 0, 0]);
        assert_eq!(&idb[36..40], &[0, 0, 0, 0], "opt_endofopt");
        assert_eq!(idb_len, 44);

        // --- EPB ---
        let epb = &idb[idb_len..];
        assert_eq!(&epb[0..4], &[6, 0, 0, 0], "EPB block type");
        let epb_len = u32::from_le_bytes(epb[4..8].try_into().unwrap()) as usize;
        assert_eq!(&epb[8..12], &[0, 0, 0, 0], "interface id 0");
        assert_eq!(u32::from_le_bytes(epb[12..16].try_into().unwrap()), 1, "timestamp high");
        assert_eq!(u32::from_le_bytes(epb[16..20].try_into().unwrap()), 1, "timestamp low");
        assert_eq!(u32::from_le_bytes(epb[20..24].try_into().unwrap()), 3, "captured length");
        assert_eq!(u32::from_le_bytes(epb[24..28].try_into().unwrap()), 3, "original length");
        assert_eq!(&epb[28..32], &[0xAA, 0xBB, 0xCC, 0], "data padded to 4");
        assert_eq!(&epb[32..40], &[1, 0, 1, 0, b'c', 0, 0, 0], "opt_comment");
        assert_eq!(&epb[40..44], &[0, 0, 0, 0], "opt_endofopt");
        assert_eq!(epb_len, 48);
        assert_eq!(bytes.len(), shb_len + idb_len + epb_len);
    }

    /// One packet as the stream yields it: `(interface, ts_ns, bytes, comment)`.
    type Packet = (usize, u64, Vec<u8>, String);

    /// Drains a stream into owned packets, its interfaces, warnings and
    /// stats.
    #[allow(clippy::type_complexity)]
    fn collect_stream(
        data: &[u8],
    ) -> Result<(Vec<Packet>, Vec<String>, Vec<String>, StreamStats), String> {
        let mut stream = PcapngStream::new(data);
        let mut packets = Vec::new();
        while let Some(p) = stream.next_packet()? {
            packets.push((p.interface, p.ts_ns, p.bytes.to_vec(), p.comment.to_string()));
        }
        Ok((packets, stream.interfaces().to_vec(), stream.warnings().to_vec(), stream.stats()))
    }

    #[test]
    fn roundtrip_multiple_interfaces() {
        let mut w = PcapngWriter::new("arpshield");
        let a = w.add_interface("run a");
        let b = w.add_interface("run b");
        let given: Vec<Packet> = vec![
            (0, 42, vec![1, 2, 3, 4, 5, 6], "id=1 kind=deliver".into()),
            (1, u64::from(u32::MAX) + 7, vec![9; 60], String::new()),
            (0, 43, vec![7, 8], "id=2 kind=drop.lost pinned".into()),
        ];
        for (interface, ts_ns, bytes, comment) in &given {
            w.add_packet([a, b][*interface], *ts_ns, bytes, comment);
        }
        let bytes = w.finish();
        let (packets, interfaces, warnings, stats) = collect_stream(&bytes).unwrap();
        assert_eq!(interfaces, vec!["run a".to_string(), "run b".to_string()]);
        assert_eq!(packets, given, "64-bit timestamps, octets and comments survive");
        assert!(warnings.is_empty());
        assert_eq!(stats.sections, 1);
        assert_eq!(stats.blocks, 6);
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.bytes, bytes.len() as u64);
    }

    #[test]
    fn microsecond_tsresol_scales() {
        assert_eq!(tsresol_to_ns(9), 1);
        assert_eq!(tsresol_to_ns(6), 1_000);
        assert_eq!(tsresol_to_ns(0), 1_000_000_000);
        assert_eq!(tsresol_to_ns(0x80 | 10), 976_562, "2^-10 s in whole ns");
    }

    #[test]
    fn streaming_keeps_complete_blocks_of_a_truncated_file() {
        let mut w = PcapngWriter::new("x");
        let i = w.add_interface("i");
        w.add_packet(i, 1, &[0xAA; 20], "first");
        w.add_packet(i, 2, &[0xBB; 20], "second");
        let full = w.finish();
        // Cut the file in the middle of the last packet block.
        for cut in [full.len() - 2, full.len() - 20, full.len() - 45] {
            let (packets, _, warnings, _) = collect_stream(&full[..cut]).unwrap();
            assert_eq!(packets.len(), 1, "complete packets survive a cut at {cut}");
            assert_eq!(packets[0].2, vec![0xAA; 20]);
            assert_eq!(warnings.len(), 1, "the cut is surfaced as a warning");
            assert!(warnings[0].contains("truncated"), "{}", warnings[0]);
        }
    }

    #[test]
    fn multi_section_files_remap_interface_ids() {
        // Two single-section files concatenated — the classic
        // `mergecap`/appended-capture shape.
        let mut first = PcapngWriter::new("one");
        let a = first.add_interface("alpha");
        first.add_packet(a, 10, &[1; 14], "from-one");
        let mut second = PcapngWriter::new("two");
        let b = second.add_interface("beta");
        let c = second.add_interface("gamma");
        second.add_packet(c, 20, &[2; 14], "from-two");
        second.add_packet(b, 30, &[3; 14], "");
        let mut bytes = first.finish();
        bytes.extend_from_slice(&second.finish());

        let (packets, interfaces, warnings, stats) = collect_stream(&bytes).unwrap();
        assert_eq!(interfaces, vec!["alpha", "beta", "gamma"]);
        assert_eq!(
            packets.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![0, 2, 1],
            "second-section ids are remapped past the first section's"
        );
        assert!(warnings.is_empty());
        assert_eq!(stats.sections, 2);
    }

    #[test]
    fn streaming_rejects_structural_corruption() {
        assert!(PcapngStream::new(&[][..]).next_packet().is_err(), "empty capture");
        assert!(
            matches!(collect_stream(&[0u8; 64]), Err(e) if e.contains("bad block length")),
            "zeros are not a block stream"
        );
        let mut w = PcapngWriter::new("x");
        w.add_interface("i");
        let mut bytes = w.finish();
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF; // corrupt the IDB trailer
        assert!(
            matches!(collect_stream(&bytes), Err(e) if e.contains("mismatched block trailer")),
            "trailer mismatch in fully-present bytes stays fatal"
        );
        // An implausible length field must not drive a huge allocation.
        let mut huge = PcapngWriter::new("x").finish();
        huge.extend_from_slice(&EPB_TYPE.to_le_bytes());
        huge.extend_from_slice(&(u32::MAX & !3).to_le_bytes());
        assert!(matches!(collect_stream(&huge), Err(e) if e.contains("implausible block length")));
    }
}
