//! Wire protocol for the LittleTable client/server boundary.
//!
//! The paper's clients speak to the server over a persistent TCP
//! connection through an SQLite virtual-table adaptor (§3.1); this crate
//! defines the equivalent protocol for our server and client adaptor:
//! length-prefixed frames carrying tagged requests and responses.
//!
//! Framing: `[len: u32 LE][payload]`, with the payload carrying a varint
//! request id (for pipelining — see [`message::encode_request_frame`])
//! followed by a tagged message body. Values are tagged with their column
//! type so heterogeneous key prefixes decode without schema context; the
//! reserved tag [`valuecodec::NULL_TAG`] marks an absent insert cell (a
//! timestamp the client omitted for the server to stamp, §3.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod message;
pub mod valuecodec;

pub use frame::{read_frame, write_frame, FrameDecoder, MAX_FRAME_LEN, READ_CHUNK};
pub use message::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response_frame,
    request_frame_id, ErrorKind, Request, Response,
};
