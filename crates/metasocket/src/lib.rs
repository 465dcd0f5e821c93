//! # sada-meta — the MetaSocket substrate
//!
//! MetaSockets (Sadjadi, McKinley & Kasten, FTDCS'03) are the adaptable
//! communication components the DSN 2004 case study recomposes at runtime:
//! sockets whose send/receive paths run packets through a chain of filters
//! that can be inserted, removed, and replaced while the application runs.
//!
//! * [`Packet`] — the datagram unit, carrying a codec tag stack so decoders
//!   can *bypass* packets they do not understand (the paper's compatibility
//!   mechanism during adaptation).
//! * [`Filter`] — the component abstraction; stock filters cover DES-64 and
//!   DES-128 encryption ([`filters::des`]), run-length compression
//!   ([`filters::rle`]), and XOR-parity FEC ([`filters::fec`]).
//! * [`FilterChain`] — the recomposable pipeline with packet-boundary
//!   atomicity and block/unblock buffering, the mechanics behind the agent's
//!   *local safe state*.
//!
//! ```
//! use sada_meta::{FilterChain, Packet};
//! use sada_meta::filters::des::{CipherEncoder, CipherDecoder};
//!
//! let mut send = FilterChain::new();
//! send.push_back("E1", Box::new(CipherEncoder::des64(0x133457799BBCDFF1)))?;
//! let mut recv = FilterChain::new();
//! recv.push_back("D1", Box::new(CipherDecoder::des64(0x133457799BBCDFF1)))?;
//!
//! let wire = send.push(Packet::new(0, 1, b"frame".to_vec())).pop().unwrap();
//! let out = recv.push(wire).pop().unwrap();
//! assert_eq!(out.payload, b"frame");
//! # Ok::<(), sada_meta::ChainError>(())
//! ```

mod chain;
mod filter;
pub mod filters;
mod packet;

pub use chain::{ChainError, ChainStats, FilterChain};
pub use filter::{AsAny, Filter, FilterStats};
pub use packet::{tags, Packet};
