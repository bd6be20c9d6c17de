//! Property tests for the browser emulator.

use browser::cache::BrowserCache;
use browser::Origin;
use netsim::http::{ContentType, HttpResponse};
use proptest::prelude::*;

proptest! {
    #[test]
    fn origin_parse_never_panics(s in ".{0,150}") {
        let _ = Origin::of(&s);
    }

    #[test]
    fn same_origin_is_reflexive_for_wellformed(
        host in "[a-z][a-z0-9-]{0,15}\\.(com|org|net)",
        path in "[a-z0-9/._-]{0,30}",
    ) {
        let url = format!("http://{host}/{path}");
        prop_assert!(Origin::of(&url).is_some());
        prop_assert_eq!(Origin::of(&url), Origin::of(&url));
    }

    #[test]
    fn same_origin_is_symmetric(
        a in "https?://[a-z]{1,8}\\.(com|org)(:[0-9]{2,4})?/[a-z0-9]{0,10}",
        b in "https?://[a-z]{1,8}\\.(com|org)(:[0-9]{2,4})?/[a-z0-9]{0,10}",
    ) {
        prop_assert_eq!(Origin::of(&a) == Origin::of(&b), Origin::of(&b) == Origin::of(&a));
    }

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
