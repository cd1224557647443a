//! Request-target parsing: path plus query-string parameters.
//!
//! Dynamic scripts are addressed exactly as in the paper —
//! `catalog.jsp?categoryID=Fiction` — so parameter extraction and canonical
//! ordering matter: the `fragmentID` is `name + parameterList` and must be
//! stable for equal parameter sets regardless of their order in the URL.

use std::collections::BTreeMap;

/// A parsed origin-form request target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uri {
    /// Decoded path, e.g. `/catalog.jsp`.
    pub path: String,
    /// Query parameters, sorted by name (BTreeMap) for canonical iteration.
    pub params: BTreeMap<String, String>,
}

impl Uri {
    /// Parse a target such as `/catalog.jsp?categoryID=Fiction&page=2`.
    pub fn parse(target: &str) -> Uri {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        let mut params = BTreeMap::new();
        if let Some(q) = query {
            for pair in q.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = match pair.split_once('=') {
                    Some((k, v)) => (k, v),
                    None => (pair, ""),
                };
                params.insert(percent_decode(k), percent_decode(v));
            }
        }
        Uri {
            path: percent_decode(path),
            params,
        }
    }

    /// Parameter lookup.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    /// Canonical `k1=v1&k2=v2` string (sorted by key, percent-encoded).
    /// Used to build stable fragment identifiers.
    pub fn canonical_query(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push('&');
            }
            out.push_str(&percent_encode(k));
            out.push('=');
            out.push_str(&percent_encode(v));
        }
        out
    }

    /// Reassemble a target string in canonical form.
    pub fn to_target(&self) -> String {
        if self.params.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.canonical_query())
        }
    }
}

/// Decode `%XX` escapes and `+` as space. Invalid escapes pass through
/// verbatim (lenient, like the 2002-era servers being modelled). Decoded
/// bytes that are not UTF-8 become U+FFFD; valid ones are not copied
/// again.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if i + 2 < bytes.len() {
                    if let (Some(h), Some(l)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                        out.push(h * 16 + l);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Encode reserved characters as `%XX` (conservative set: everything that is
/// not unreserved per RFC 3986).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b'/' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_path_and_params() {
        let u = Uri::parse("/catalog.jsp?categoryID=Fiction&page=2");
        assert_eq!(u.path, "/catalog.jsp");
        assert_eq!(u.param("categoryID"), Some("Fiction"));
        assert_eq!(u.param("page"), Some("2"));
        assert_eq!(u.param("missing"), None);
    }

    #[test]
    fn canonical_query_is_order_independent() {
        let a = Uri::parse("/s?b=2&a=1");
        let b = Uri::parse("/s?a=1&b=2");
        assert_eq!(a.canonical_query(), b.canonical_query());
        assert_eq!(a.to_target(), "/s?a=1&b=2");
    }

    #[test]
    fn decode_escapes_and_plus() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%25"), "100%");
    }

    #[test]
    fn decode_is_lenient_on_bad_escapes() {
        assert_eq!(percent_decode("50%"), "50%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let original = "hello world&x=1?/ümlaut";
        assert_eq!(percent_decode(&percent_encode(original)), original);
    }

    #[test]
    fn valueless_and_empty_params() {
        let u = Uri::parse("/p?flag&x=&&y=1");
        assert_eq!(u.param("flag"), Some(""));
        assert_eq!(u.param("x"), Some(""));
        assert_eq!(u.param("y"), Some("1"));
    }

    #[test]
    fn no_query() {
        let u = Uri::parse("/just/path");
        assert!(u.params.is_empty());
        assert_eq!(u.to_target(), "/just/path");
    }
}
