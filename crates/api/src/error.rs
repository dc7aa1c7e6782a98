//! Structured wire errors: every failure a client can see is an
//! [`ErrorBody`] with a stable machine-readable `code`, carried by an
//! [`ApiError`] that also knows its HTTP status.

use crate::WIRE_SCHEMA_VERSION;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The JSON body of every non-2xx response (and of CLI schema errors).
///
/// `code` is the stable, machine-matchable identifier; `message` is for
/// humans and may change wording freely. `retry_after_s` is set only on
/// backpressure rejections (HTTP 429), mirroring the `Retry-After`
/// header for JSON-only clients.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Wire schema version ([`WIRE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Stable error identifier (`unknown_profile`, `unknown_axis`,
    /// `bad_schema_version`, `busy`, ...).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Seconds after which a retry may succeed (429 only, else null).
    pub retry_after_s: Option<u32>,
}

/// An [`ErrorBody`] plus the HTTP status it travels under.
#[derive(Clone, Debug, PartialEq)]
pub struct ApiError {
    /// HTTP status code (400, 404, 405, 408, 413, 429, 500).
    pub status: u16,
    /// The structured body.
    pub body: ErrorBody,
}

impl ApiError {
    /// An error with an arbitrary status.
    pub fn new(status: u16, code: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            body: ErrorBody {
                schema_version: WIRE_SCHEMA_VERSION,
                code: code.to_string(),
                message: message.into(),
                retry_after_s: None,
            },
        }
    }

    /// 400: the request is malformed or semantically invalid.
    pub fn bad_request(code: &str, message: impl Into<String>) -> ApiError {
        ApiError::new(400, code, message)
    }

    /// 404: the named resource (profile, endpoint) does not exist.
    pub fn not_found(code: &str, message: impl Into<String>) -> ApiError {
        ApiError::new(404, code, message)
    }

    /// 413: the request is structurally valid but too large to serve.
    pub fn too_large(code: &str, message: impl Into<String>) -> ApiError {
        ApiError::new(413, code, message)
    }

    /// 429: the service is at its in-flight sweep capacity; retry after
    /// `retry_after_s` seconds (also sent as the `Retry-After` header).
    pub fn busy(message: impl Into<String>, retry_after_s: u32) -> ApiError {
        let mut e = ApiError::new(429, "busy", message);
        e.body.retry_after_s = Some(retry_after_s);
        e
    }

    /// 500: the service failed internally.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError::new(500, "internal", message)
    }

    /// The standard refusal for a request carrying the wrong
    /// `schema_version`.
    pub fn wrong_schema_version(got: u32) -> ApiError {
        ApiError::bad_request(
            "bad_schema_version",
            format!(
                "request schema_version {got} is not supported; this server speaks \
                 schema_version {WIRE_SCHEMA_VERSION}"
            ),
        )
    }

    /// Serialize the body to the wire JSON.
    pub fn body_json(&self) -> String {
        serde_json::to_string(&self.body).expect("error bodies serialize")
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.status, self.body.code, self.body.message
        )
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_body_round_trips() {
        let e = ApiError::busy("2 sweeps in flight", 3);
        assert_eq!(e.status, 429);
        let json = e.body_json();
        let back: ErrorBody = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e.body);
        assert_eq!(back.retry_after_s, Some(3));
    }

    #[test]
    fn display_names_code_and_status() {
        let e = ApiError::not_found("unknown_profile", "no profile `mcf`");
        assert_eq!(e.to_string(), "404 unknown_profile: no profile `mcf`");
        assert_eq!(e.body.retry_after_s, None);
    }
}
