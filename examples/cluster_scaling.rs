//! Multi-GPU cluster partitioning (§III): shard the database across
//! simulated GPU devices in temporal slabs, route each query to the shards
//! it can reach, and watch the aggregate memory and the response time
//! scale with the device count.
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use tdts::prelude::*;

fn main() {
    let store = MergerConfig { particles: 8_192, timesteps: 49, ..Default::default() }.generate();
    let queries =
        MergerConfig { particles: 32, timesteps: 49, seed: 0xC1, ..Default::default() }.generate();
    println!("|D| = {} segments, |Q| = {}", store.len(), queries.len());

    let dataset = PreparedDataset::new(store);
    let d = 2.0;
    let method = Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
        bins: 200,
        subbins: 4,
        sort_by_selector: true,
    });
    let mut reference: Option<Vec<MatchRecord>> = None;

    println!("\n{:>8} {:>14} {:>16} {:>14}", "devices", "matches", "response (s)", "shards probed");
    for devices in [1usize, 2, 4, 8] {
        let config = ShardedIndexConfig::builder().shards(devices).build().expect("shard config");
        let engine =
            SearchEngine::build_sharded(&dataset, method, &DeviceConfig::tesla_c2075(), &config)
                .expect("sharded build");
        let (matches, report) = engine.search(&queries, d, 2_000_000).expect("search");
        match &reference {
            None => reference = Some(matches.clone()),
            Some(r) => assert_eq!(&matches, r, "sharding must not change results"),
        }
        println!(
            "{:>8} {:>14} {:>16.6} {:>14}",
            devices,
            matches.len(),
            report.response_seconds(),
            report.routing.shards_probed
        );
    }
    println!("\n(results are identical for every device count; temporal sharding");
    println!(" splits each query's candidate range across devices, and the merged");
    println!(" response is the slowest probed device's plus the host merge)");
}
