//! HTTP Archive (HAR 1.2) data model.
//!
//! Paper §5.2: "the Target Fetcher collects detailed information about
//! each URL by loading and rendering it in a real Web browser and
//! recording its behavior in an HTTP Archive (HAR) file … which documents
//! the set of resources that a browser downloads while rendering a URL,
//! timing information for each operation, and the HTTP headers of each
//! request and response".
//!
//! We model the subset of HAR 1.2 the Task Generator consumes. HARs are
//! produced by the browser emulator's headless mode (the PhantomJS
//! stand-in) and serialise to JSON via serde, as real HARs would.

use netsim::http::ContentType;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// One fetched resource within a page load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarEntry {
    /// Resource URL.
    pub url: String,
    /// HTTP status (0 when the fetch failed before a response).
    pub status: u16,
    /// Declared content type.
    pub content_type: ContentType,
    /// Body size in bytes.
    pub body_bytes: u64,
    /// Whether cache headers permit reuse.
    pub cacheable: bool,
    /// Whether `X-Content-Type-Options: nosniff` was present.
    pub nosniff: bool,
    /// Total fetch time for this resource.
    pub time: SimDuration,
    /// Whether the fetch succeeded with a valid body.
    pub ok: bool,
}

impl HarEntry {
    /// Whether this entry is a successfully fetched image.
    pub fn is_image(&self) -> bool {
        self.ok && self.content_type == ContentType::Image
    }
}

/// An archive of one page load.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Har {
    /// The page URL that was rendered.
    pub page_url: String,
    /// Every fetched resource, in fetch order. The first entry is the
    /// page's own HTML.
    pub entries: Vec<HarEntry>,
    /// Whether the top-level page load succeeded.
    pub page_ok: bool,
}

impl Har {
    /// Total bytes transferred ("page size" in Figure 5: "the sum of
    /// sizes of all objects loaded by a page").
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.body_bytes).sum()
    }

    /// Whether any fetched object exceeds `bytes` (the §5.2 "large
    /// object" exclusion).
    pub fn has_object_larger_than(&self, bytes: u64) -> bool {
        self.entries.iter().any(|e| e.body_bytes > bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(url: &str, ct: ContentType, bytes: u64, cacheable: bool) -> HarEntry {
        HarEntry {
            url: url.into(),
            status: 200,
            content_type: ct,
            body_bytes: bytes,
            cacheable,
            nosniff: false,
            time: SimDuration::from_millis(80),
            ok: true,
        }
    }

    fn demo() -> Har {
        Har {
            page_url: "http://site.org/page/1.html".into(),
            entries: vec![
                entry(
                    "http://site.org/page/1.html",
                    ContentType::Html,
                    20_000,
                    false,
                ),
                entry("http://site.org/logo.png", ContentType::Image, 900, true),
                entry(
                    "http://site.org/photo.jpg",
                    ContentType::Image,
                    45_000,
                    false,
                ),
                entry("http://cdn.example/like.png", ContentType::Image, 700, true),
                entry("http://site.org/site.js", ContentType::Script, 60_000, true),
            ],
            page_ok: true,
        }
    }

    #[test]
    fn total_bytes_sums_everything() {
        assert_eq!(demo().total_bytes(), 20_000 + 900 + 45_000 + 700 + 60_000);
    }

    #[test]
    fn image_filters() {
        let h = demo();
        let images = || h.entries.iter().filter(|e| e.is_image());
        assert_eq!(images().count(), 3);
        assert_eq!(images().filter(|e| e.cacheable).count(), 2);
    }

    #[test]
    fn failed_entries_are_not_images() {
        let mut e = entry("http://x/y.png", ContentType::Image, 100, true);
        e.ok = false;
        assert!(!e.is_image());
    }

    #[test]
    fn large_object_detection() {
        let h = demo();
        assert!(h.has_object_larger_than(50_000));
        assert!(!h.has_object_larger_than(100_000));
    }

    #[test]
    fn serialises_to_json() {
        let h = demo();
        let json = serde_json::to_string(&h).unwrap();
        let back: Har = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
