//! Property tests for the browser emulator.

use browser::cache::BrowserCache;
use netsim::http::{ContentType, HttpResponse};
use proptest::prelude::*;

proptest! {
    #[test]
    fn cache_never_exceeds_capacity(
        capacity in 1usize..50,
        urls in proptest::collection::vec("[a-z0-9]{1,12}", 0..200),
    ) {
        let mut cache = BrowserCache::new(capacity);
        for u in &urls {
            cache.store(&format!("http://x.com/{u}"), &HttpResponse::ok(ContentType::Image, 100));
            prop_assert!(cache.len() <= capacity);
        }
    }

    #[test]
    fn cache_lookup_after_store_hits(urls in proptest::collection::vec("[a-z0-9]{1,12}", 1..50)) {
        let mut cache = BrowserCache::new(1_000);
        for u in &urls {
            let url = format!("http://x.com/{u}");
            cache.store(&url, &HttpResponse::ok(ContentType::Image, 42));
            prop_assert!(cache.lookup(&url).is_some());
        }
    }

    #[test]
    fn cache_stats_add_up(lookups in proptest::collection::vec(proptest::bool::ANY, 0..100)) {
        let mut cache = BrowserCache::new(64);
        cache.store("http://x.com/present", &HttpResponse::ok(ContentType::Image, 1));
        for hit in &lookups {
            if *hit {
                cache.lookup("http://x.com/present");
            } else {
                cache.lookup("http://x.com/absent");
            }
        }
        let (h, m) = cache.stats();
        prop_assert_eq!(h as usize, lookups.iter().filter(|b| **b).count());
        prop_assert_eq!(m as usize, lookups.iter().filter(|b| !**b).count());
    }
}
