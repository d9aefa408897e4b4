//! A small, dependency-free XML parser and writer.
//!
//! The approXQL data model (Section 4 of the paper) needs exactly three
//! things from XML: element structure, attributes, and character data. This
//! crate provides a pull-based event reader ([`XmlReader`]), a tiny DOM
//! ([`Document`] / [`Element`]), and a serializer, covering the subset of
//! XML 1.0 that data-centric documents use:
//!
//! * elements with attributes (double- or single-quoted),
//! * character data with the five predefined entities and numeric character
//!   references,
//! * CDATA sections, comments, processing instructions,
//! * an optional XML declaration and a (skipped) internal-subset-free
//!   `<!DOCTYPE …>`.
//!
//! Elements nest at most [`MAX_DEPTH`] levels; a deeper document is an
//! [`XmlError`] like any other malformed one.
//!
//! Not supported (irrelevant for the reproduction and documented as such):
//! namespace-aware processing (prefixes are kept verbatim in names), DTD
//! internal subsets, and custom entity definitions.

mod dom;
mod error;
mod escape;
mod reader;

pub use dom::{parse_document, Document, Element, XmlNode};
pub use error::XmlError;
pub use escape::{escape_attribute, escape_text, unescape};
pub use reader::{Attribute, XmlEvent, XmlReader, MAX_DEPTH};
