//! Pull-based XML event reader.

use crate::escape::unescape;
use crate::XmlError;

/// A single attribute of a start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written (prefixes are not interpreted).
    pub name: String,
    /// Attribute value with entities resolved.
    pub value: String,
}

/// Events produced by [`XmlReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// `<name attr="…">`. For empty-element tags (`<name/>`) the reader
    /// emits `StartElement` immediately followed by `EndElement`.
    StartElement {
        /// Element name.
        name: String,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// `</name>` (or the synthetic end of an empty-element tag).
    EndElement {
        /// Element name.
        name: String,
    },
    /// Character data with entities resolved; CDATA content is delivered
    /// verbatim. Whitespace-only text between elements is preserved here;
    /// consumers decide whether it is significant.
    Text(String),
    /// `<!-- … -->` (content without the delimiters).
    Comment(String),
    /// `<?target data?>` excluding the XML declaration, which is consumed
    /// silently.
    ProcessingInstruction(String),
    /// End of input; returned exactly once, after the root element closed.
    Eof,
}

/// The deepest element nesting the reader accepts. Everything behind it
/// that recurses over a document — the DOM's serializer and its `Drop`,
/// the data tree's builder and `subtree_element` — is bounded by it too,
/// so a hostile document is an [`XmlError`], not a stack overflow.
pub const MAX_DEPTH: usize = 256;

/// A streaming XML reader over an in-memory string.
///
/// ```
/// use approxql_xml::{XmlReader, XmlEvent};
/// let mut r = XmlReader::new("<a x='1'>hi</a>");
/// assert!(matches!(r.next_event().unwrap(), XmlEvent::StartElement { .. }));
/// assert_eq!(r.next_event().unwrap(), XmlEvent::Text("hi".into()));
/// assert!(matches!(r.next_event().unwrap(), XmlEvent::EndElement { .. }));
/// assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
/// ```
pub struct XmlReader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    column: usize,
    /// Stack of currently open element names (well-formedness check).
    open: Vec<String>,
    /// Pending synthetic end tag for `<name/>`.
    pending_end: Option<String>,
    /// Whether the root element has been seen.
    seen_root: bool,
    /// Whether the root element has been closed.
    root_closed: bool,
    finished: bool,
}

impl<'a> XmlReader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a str) -> XmlReader<'a> {
        XmlReader {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
            open: Vec::new(),
            pending_end: None,
            seen_root: false,
            root_closed: false,
            finished: false,
        }
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError::new(self.line, self.column, message)
    }

    fn advance(&mut self, n: usize) {
        for &b in &self.bytes[self.pos..self.pos + n] {
            if b == b'\n' {
                self.line += 1;
                self.column = 1;
            } else if b & 0xC0 != 0x80 {
                // count characters, not continuation bytes
                self.column += 1;
            }
        }
        self.pos += n;
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    /// Consumes input up to and including `delim`, returning the part
    /// before the delimiter.
    fn take_until(&mut self, delim: &str, what: &str) -> Result<&'a str, XmlError> {
        match self.rest().find(delim) {
            Some(idx) => {
                let content = &self.rest()[..idx];
                self.advance(idx + delim.len());
                Ok(content)
            }
            None => Err(self.err(format!("unterminated {what} (expected `{delim}`)"))),
        }
    }

    fn skip_whitespace(&mut self) {
        let n = self
            .rest()
            .find(|c: char| !c.is_ascii_whitespace())
            .unwrap_or(self.rest().len());
        self.advance(n);
    }

    fn read_name(&mut self) -> Result<String, XmlError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|&(i, c)| {
                if i == 0 {
                    !(c.is_alphabetic() || c == '_' || c == ':')
                } else {
                    !(c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.'))
                }
            })
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected a name"));
        }
        let name = rest[..end].to_owned();
        self.advance(end);
        Ok(name)
    }

    fn read_attributes(&mut self) -> Result<Vec<Attribute>, XmlError> {
        let mut attrs: Vec<Attribute> = Vec::new();
        loop {
            self.skip_whitespace();
            let rest = self.rest();
            if rest.starts_with('>') || rest.starts_with("/>") || rest.is_empty() {
                break;
            }
            let name = self.read_name()?;
            self.skip_whitespace();
            if !self.starts_with("=") {
                return Err(self.err(format!("attribute `{name}` is missing `=`")));
            }
            self.advance(1);
            self.skip_whitespace();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                _ => return Err(self.err(format!("attribute `{name}` value must be quoted"))),
            };
            self.advance(1);
            let (line, column) = (self.line, self.column);
            let raw = self.take_until(&quote.to_string(), "attribute value")?;
            if raw.contains('<') {
                return Err(XmlError::new(
                    line,
                    column,
                    "`<` is not allowed in attribute values",
                ));
            }
            let value = unescape(raw, line, column)?;
            if attrs.iter().any(|a| a.name == name) {
                return Err(self.err(format!("duplicate attribute `{name}`")));
            }
            attrs.push(Attribute { name, value });
        }
        Ok(attrs)
    }

    /// Returns the next event, or an error on malformed input.
    pub fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.open.pop();
            if self.open.is_empty() {
                self.root_closed = true;
            }
            return Ok(XmlEvent::EndElement { name });
        }
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        loop {
            if self.pos >= self.bytes.len() {
                if !self.open.is_empty() {
                    return Err(self.err(format!(
                        "unexpected end of input: element `{}` is still open",
                        self.open.last().unwrap()
                    )));
                }
                if !self.seen_root {
                    return Err(self.err("document has no root element"));
                }
                self.finished = true;
                return Ok(XmlEvent::Eof);
            }
            if !self.starts_with("<") {
                let (line, column) = (self.line, self.column);
                let idx = self.rest().find('<').unwrap_or(self.rest().len());
                let raw = &self.rest()[..idx];
                self.advance(idx);
                if self.open.is_empty() {
                    if raw.trim().is_empty() {
                        continue; // whitespace outside the root element
                    }
                    return Err(XmlError::new(line, column, "text outside the root element"));
                }
                let text = unescape(raw, line, column)?;
                return Ok(XmlEvent::Text(text));
            }
            // A markup construct.
            if self.starts_with("<!--") {
                self.advance(4);
                let content = self.take_until("-->", "comment")?.to_owned();
                return Ok(XmlEvent::Comment(content));
            }
            if self.starts_with("<![CDATA[") {
                if self.open.is_empty() {
                    return Err(self.err("CDATA outside the root element"));
                }
                self.advance(9);
                let content = self.take_until("]]>", "CDATA section")?.to_owned();
                return Ok(XmlEvent::Text(content));
            }
            if self.starts_with("<?") {
                self.advance(2);
                let content = self.take_until("?>", "processing instruction")?.to_owned();
                if content.trim_start().starts_with("xml") && !self.seen_root {
                    continue; // XML declaration
                }
                return Ok(XmlEvent::ProcessingInstruction(content));
            }
            if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.advance(9);
                // Skip to the matching `>`; internal subsets in `[...]` are
                // skipped wholesale but not interpreted.
                let mut depth = 0usize;
                loop {
                    match self.rest().chars().next() {
                        None => return Err(self.err("unterminated DOCTYPE")),
                        Some('[') => {
                            depth += 1;
                            self.advance(1);
                        }
                        Some(']') => {
                            depth = depth.saturating_sub(1);
                            self.advance(1);
                        }
                        Some('>') if depth == 0 => {
                            self.advance(1);
                            break;
                        }
                        Some(c) => self.advance(c.len_utf8()),
                    }
                }
                continue;
            }
            if self.starts_with("</") {
                self.advance(2);
                let name = self.read_name()?;
                self.skip_whitespace();
                if !self.starts_with(">") {
                    return Err(self.err(format!("malformed end tag `</{name}`")));
                }
                self.advance(1);
                match self.open.last() {
                    Some(top) if *top == name => {
                        self.open.pop();
                        if self.open.is_empty() {
                            self.root_closed = true;
                        }
                        return Ok(XmlEvent::EndElement { name });
                    }
                    Some(top) => {
                        return Err(self.err(format!(
                            "end tag `</{name}>` does not match open element `{top}`"
                        )))
                    }
                    None => return Err(self.err(format!("unexpected end tag `</{name}>`"))),
                }
            }
            // Start tag.
            if self.open.len() == MAX_DEPTH {
                return Err(self.err(format!("elements nest deeper than {MAX_DEPTH} levels")));
            }
            self.advance(1);
            if self.root_closed {
                return Err(self.err("only one root element is allowed"));
            }
            let name = self.read_name()?;
            let attributes = self.read_attributes()?;
            self.skip_whitespace();
            if self.starts_with("/>") {
                self.advance(2);
                self.seen_root = true;
                self.open.push(name.clone());
                self.pending_end = Some(name.clone());
                return Ok(XmlEvent::StartElement { name, attributes });
            }
            if self.starts_with(">") {
                self.advance(1);
                self.seen_root = true;
                self.open.push(name.clone());
                return Ok(XmlEvent::StartElement { name, attributes });
            }
            return Err(self.err(format!("malformed start tag `<{name}`")));
        }
    }

    /// Current 1-based (line, column) position, for diagnostics.
    pub fn position(&self) -> (usize, usize) {
        (self.line, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<XmlEvent>, XmlError> {
        let mut r = XmlReader::new(input);
        let mut out = Vec::new();
        loop {
            let e = r.next_event()?;
            let eof = e == XmlEvent::Eof;
            out.push(e);
            if eof {
                return Ok(out);
            }
        }
    }

    fn start(name: &str) -> XmlEvent {
        XmlEvent::StartElement {
            name: name.into(),
            attributes: vec![],
        }
    }

    fn end(name: &str) -> XmlEvent {
        XmlEvent::EndElement { name: name.into() }
    }

    #[test]
    fn simple_document() {
        let ev = events("<a><b>text</b></a>").unwrap();
        assert_eq!(
            ev,
            vec![
                start("a"),
                start("b"),
                XmlEvent::Text("text".into()),
                end("b"),
                end("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn empty_element_yields_start_and_end() {
        let ev = events("<a><b/></a>").unwrap();
        assert_eq!(
            ev,
            vec![start("a"), start("b"), end("b"), end("a"), XmlEvent::Eof]
        );
    }

    #[test]
    fn attributes_are_parsed_in_order() {
        let ev = events(r#"<a x="1" y='two &amp; three'/>"#).unwrap();
        match &ev[0] {
            XmlEvent::StartElement { name, attributes } => {
                assert_eq!(name, "a");
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0].name, "x");
                assert_eq!(attributes[0].value, "1");
                assert_eq!(attributes[1].name, "y");
                assert_eq!(attributes[1].value, "two & three");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(events(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn entities_in_text() {
        let ev = events("<a>&lt;hi&gt; &#65;</a>").unwrap();
        assert_eq!(ev[1], XmlEvent::Text("<hi> A".into()));
    }

    #[test]
    fn cdata_is_verbatim() {
        let ev = events("<a><![CDATA[<raw> & stuff]]></a>").unwrap();
        assert_eq!(ev[1], XmlEvent::Text("<raw> & stuff".into()));
    }

    #[test]
    fn comments_and_pis() {
        let ev = events("<?xml version=\"1.0\"?><!-- hello --><a><?pi data?></a>").unwrap();
        assert_eq!(ev[0], XmlEvent::Comment(" hello ".into()));
        assert_eq!(ev[2], XmlEvent::ProcessingInstruction("pi data".into()));
    }

    #[test]
    fn doctype_is_skipped() {
        let ev = events("<!DOCTYPE catalog [<!ELEMENT a (b)>]><a/>").unwrap();
        assert_eq!(ev[0], start("a"));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = events("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("does not match"));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| "<a>\n".repeat(depth) + &"</a>".repeat(depth);
        // Start tag, newline, end tag per level, and `Eof`.
        assert_eq!(events(&nested(MAX_DEPTH)).unwrap().len(), 3 * MAX_DEPTH + 1);
        // The error points at the `<` of the first tag that is too deep,
        // and comes before anything is recursed over: 200,000 levels are
        // as cheap to refuse as 257.
        for depth in [MAX_DEPTH + 1, 200_000] {
            let e = events(&nested(depth)).unwrap_err();
            assert_eq!((e.line, e.column), (MAX_DEPTH + 1, 1), "{e}");
            assert!(e.message.contains("deeper than 256 levels"), "{e}");
        }
    }

    #[test]
    fn unclosed_root_rejected() {
        assert!(events("<a><b></b>").is_err());
    }

    #[test]
    fn two_roots_rejected() {
        assert!(events("<a/><b/>").is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(events("<a/>junk").is_err());
        assert!(events("junk<a/>").is_err());
    }

    #[test]
    fn whitespace_outside_root_ok() {
        assert!(events("  <a/>\n  ").is_ok());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(events("").is_err());
        assert!(events("   ").is_err());
    }

    #[test]
    fn error_position_is_tracked() {
        let err = events("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unicode_names_and_text() {
        let ev = events("<répertoire>Dvořák — Rusalka</répertoire>").unwrap();
        assert_eq!(ev[0], start("répertoire"));
        assert_eq!(ev[1], XmlEvent::Text("Dvořák — Rusalka".into()));
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(events(r#"<a x="a<b"/>"#).is_err());
    }

    #[test]
    fn eof_is_idempotent() {
        let mut r = XmlReader::new("<a/>");
        while r.next_event().unwrap() != XmlEvent::Eof {}
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }
}
