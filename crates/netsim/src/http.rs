//! HTTP model.
//!
//! We model requests and responses at the granularity Encore cares about:
//! GET requests (embedding always fetches), URL, a small set of semantically meaningful headers
//! (`Content-Type`, `Cache-Control`, `X-Content-Type-Options`, `Referer`),
//! status codes, and bodies described by size + content class rather than
//! literal bytes. Keyword-based censorship (paper §1: "censorship typically
//! targets specific domains, URLs, keywords, or content") operates on the
//! URL string and on a `keywords` summary of the body.

use serde::{Deserialize, Serialize};
use std::fmt;

/// HTTP status code (the subset the simulation produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 302 Found (redirect — used by censors to point at block pages).
    pub const FOUND: StatusCode = StatusCode(302);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);

    /// Whether this is a 2xx success.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Whether this is a 3xx redirect.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Content type of a response body, at the granularity the browser's
/// loaders distinguish (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentType {
    /// An image (`image/*`). Valid images render; `img` fires `onload`.
    Image,
    /// A style sheet (`text/css`).
    Stylesheet,
    /// JavaScript (`application/javascript`).
    Script,
    /// An HTML page (`text/html`).
    Html,
    /// Anything else (video, flash, fonts, JSON, …).
    Other,
}

/// Cacheability of a response, summarising `Cache-Control`/`Expires`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cacheability {
    /// Cacheable with a long lifetime (typical for static images/CSS).
    Cacheable,
    /// `no-store` / `no-cache` / private.
    NotCacheable,
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HttpRequest {
    /// Absolute URL string, e.g. `http://censored.com/favicon.ico`.
    pub url: String,
    /// `Referer` header, if the client sends one (origin sites may strip
    /// it — the paper notes ¾ of measurements arrived referrer-less).
    pub referer: Option<String>,
}

impl HttpRequest {
    /// A GET for `url` with no referer.
    pub fn get(url: impl Into<String>) -> HttpRequest {
        HttpRequest {
            url: url.into(),
            referer: None,
        }
    }

    /// Set the referer.
    pub fn with_referer(mut self, referer: impl Into<String>) -> HttpRequest {
        self.referer = Some(referer.into());
        self
    }

    /// The host (DNS name) component of the URL, lower-cased, or `None` if
    /// the URL is malformed. Borrows from the URL unless lower-casing
    /// forces a copy (URLs in the simulation are lowercase already, so the
    /// hot path never allocates).
    pub fn host(&self) -> Option<std::borrow::Cow<'_, str>> {
        host_ref(&self.url)
    }

    /// The path component ("/..." part, without query), borrowed.
    pub fn path(&self) -> &str {
        path_ref(&self.url)
    }
}

/// Extract the host from an absolute `http://` URL, borrowing from `url`
/// when it is already lowercase (the common case in the simulation).
pub fn host_ref(url: &str) -> Option<std::borrow::Cow<'_, str>> {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))
        .or_else(|| url.strip_prefix("//"))?;
    // SWAR byte scan: a multi-char pattern would walk char-by-char, and
    // this runs once per fetch.
    let bytes = rest.as_bytes();
    let end = sim_core::find_any3(bytes, b'/', b'?', b'#').unwrap_or(rest.len());
    let hostport = &rest[..end];
    if hostport.is_empty() {
        return None;
    }
    let host = match sim_core::find_byte(hostport.as_bytes(), b':') {
        Some(colon) => &hostport[..colon],
        None => hostport,
    };
    if host.is_empty() {
        None
    } else if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Some(std::borrow::Cow::Owned(host.to_ascii_lowercase()))
    } else {
        Some(std::borrow::Cow::Borrowed(host))
    }
}

/// Extract the host from an absolute `http://` URL (allocating wrapper
/// over [`host_ref`] for callers that need ownership).
pub fn host_of(url: &str) -> Option<String> {
    host_ref(url).map(std::borrow::Cow::into_owned)
}

/// Extract the path from an absolute URL (default `/`), borrowed.
pub fn path_ref(url: &str) -> &str {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))
        .or_else(|| url.strip_prefix("//"))
        .unwrap_or(url);
    let bytes = rest.as_bytes();
    match sim_core::find_byte(bytes, b'/') {
        Some(i) => {
            let p = &rest[i..];
            let end = sim_core::find_either(p.as_bytes(), b'?', b'#').unwrap_or(p.len());
            &p[..end]
        }
        None => "/",
    }
}

/// Extract the path from an absolute URL (allocating wrapper over
/// [`path_ref`] for callers that need ownership).
pub fn path_of(url: &str) -> String {
    path_ref(url).to_string()
}

/// How an HTML page embeds a subresource (the mechanisms of paper
/// Table 1 map onto these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmbedKind {
    /// `<img src=…>`
    Image,
    /// `<link rel="stylesheet" href=…>`
    Stylesheet,
    /// `<script src=…>`
    Script,
}

/// One embedded-resource reference found in an HTML body. Carried on
/// [`HttpResponse`] so browsers can discover subresources without the
/// simulation shipping literal HTML bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Embedded {
    /// Absolute URL of the embedded resource.
    pub url: String,
    /// Embed mechanism.
    pub kind: EmbedKind,
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HttpResponse {
    /// Status code.
    pub status: StatusCode,
    /// Body content type.
    pub content_type: ContentType,
    /// Body size in bytes.
    pub body_bytes: u64,
    /// Cacheability summary.
    pub cacheability: Cacheability,
    /// Whether the server sent `X-Content-Type-Options: nosniff` (paper
    /// §4.3.2: Chrome respects it, which makes the script task safe).
    pub nosniff: bool,
    /// `Location` header for redirects.
    pub location: Option<String>,
    /// Whether the body parses as valid content of its declared type
    /// (e.g. a real image; a censor block page served as HTML is *not* a
    /// valid image even when requested via an `img` tag).
    pub valid_body: bool,
    /// Keyword summary of the body (for content censors and tests).
    pub keywords: Vec<String>,
    /// For HTML bodies: the subresources the page embeds (what a browser
    /// would discover while parsing).
    pub embeds: Vec<Embedded>,
}

impl HttpResponse {
    /// A 200 response with the given type/size, cacheable, valid.
    pub fn ok(content_type: ContentType, body_bytes: u64) -> HttpResponse {
        HttpResponse {
            status: StatusCode::OK,
            content_type,
            body_bytes,
            cacheability: Cacheability::Cacheable,
            nosniff: false,
            location: None,
            valid_body: true,
            keywords: Vec::new(),
            embeds: Vec::new(),
        }
    }

    /// A 404 response.
    pub fn not_found() -> HttpResponse {
        let mut r = HttpResponse::ok(ContentType::Html, 512);
        r.status = StatusCode::NOT_FOUND;
        r.cacheability = Cacheability::NotCacheable;
        r
    }

    /// A redirect to `location`.
    pub fn redirect(location: impl Into<String>) -> HttpResponse {
        let mut r = HttpResponse::ok(ContentType::Html, 0);
        r.status = StatusCode::FOUND;
        r.location = Some(location.into());
        r.cacheability = Cacheability::NotCacheable;
        r
    }

    /// A censor block page: HTML explaining the content is blocked. Valid
    /// HTML, but not a valid image/script/stylesheet.
    pub fn block_page() -> HttpResponse {
        let mut r = HttpResponse::ok(ContentType::Html, 2_048);
        r.cacheability = Cacheability::NotCacheable;
        r.keywords = vec!["blocked".to_string()];
        r
    }

    /// Builder: mark non-cacheable.
    pub fn no_store(mut self) -> HttpResponse {
        self.cacheability = Cacheability::NotCacheable;
        self
    }

    /// Builder: set nosniff.
    pub fn with_nosniff(mut self) -> HttpResponse {
        self.nosniff = true;
        self
    }

    /// Builder: mark the body as invalid for its declared type.
    pub fn with_invalid_body(mut self) -> HttpResponse {
        self.valid_body = false;
        self
    }

    /// Builder: attach the page's embedded-resource list.
    pub fn with_embeds(mut self, embeds: Vec<Embedded>) -> HttpResponse {
        self.embeds = embeds;
        self
    }

    /// Whether the browser may cache this response.
    pub fn is_cacheable(&self) -> bool {
        self.cacheability == Cacheability::Cacheable && self.status.is_success()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_extraction() {
        assert_eq!(
            host_of("http://example.com/a/b"),
            Some("example.com".into())
        );
        assert_eq!(host_of("https://EXAMPLE.com"), Some("example.com".into()));
        assert_eq!(
            host_of("//cdn.example.com/x.png"),
            Some("cdn.example.com".into())
        );
        assert_eq!(
            host_of("http://example.com:8080/x"),
            Some("example.com".into())
        );
        assert_eq!(host_of("example.com/x"), None);
        assert_eq!(host_of("http://"), None);
    }

    #[test]
    fn host_and_path_borrow_when_already_lowercase() {
        use std::borrow::Cow;
        assert!(matches!(
            host_ref("http://example.com/a"),
            Some(Cow::Borrowed("example.com"))
        ));
        assert!(matches!(
            host_ref("http://EXAMPLE.com/a"),
            Some(Cow::Owned(ref s)) if s == "example.com"
        ));
        let r = HttpRequest::get("http://example.com/a/b?q=1");
        assert_eq!(r.path(), "/a/b");
        assert!(matches!(r.host(), Some(Cow::Borrowed("example.com"))));
    }

    #[test]
    fn path_extraction() {
        assert_eq!(path_of("http://example.com/a/b?q=1"), "/a/b");
        assert_eq!(path_of("http://example.com"), "/");
        assert_eq!(path_of("http://example.com/#frag"), "/");
    }

    #[test]
    fn request_accessors() {
        let r =
            HttpRequest::get("http://censored.com/favicon.ico").with_referer("http://example.com/");
        assert_eq!(r.host().as_deref(), Some("censored.com"));
        assert_eq!(r.path(), "/favicon.ico");
        assert_eq!(r.referer.as_deref(), Some("http://example.com/"));
    }

    #[test]
    fn status_predicates() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(!StatusCode::OK.is_redirect());
    }

    #[test]
    fn block_page_is_not_image() {
        let b = HttpResponse::block_page();
        assert_eq!(b.content_type, ContentType::Html);
        assert!(b.status.is_success()); // Many censors answer 200 + HTML.
        assert!(!b.is_cacheable());
        assert!(b.keywords.contains(&"blocked".to_string()));
    }

    #[test]
    fn cacheability_requires_success() {
        assert!(HttpResponse::ok(ContentType::Image, 400).is_cacheable());
        assert!(!HttpResponse::not_found().is_cacheable());
        assert!(!HttpResponse::ok(ContentType::Image, 400)
            .no_store()
            .is_cacheable());
    }

    #[test]
    fn builders_compose() {
        let r = HttpResponse::ok(ContentType::Script, 1_000)
            .with_nosniff()
            .with_invalid_body();
        assert!(r.nosniff);
        assert!(!r.valid_body);
    }

    #[test]
    fn redirect_has_location() {
        let r = HttpResponse::redirect("http://block.example/");
        assert!(r.status.is_redirect());
        assert_eq!(r.location.as_deref(), Some("http://block.example/"));
    }
}
