//! Campaign determinism: the fault-campaign JSON must be a
//! pure function of the campaign seed — byte-identical across worker
//! thread counts.

use uecgra_bench::campaign::{campaign_report, run_campaign, CampaignConfig};
use uecgra_dfg::{kernels, Kernel};
use uecgra_probe::RunReport;

fn tiny_kernels() -> Vec<Kernel> {
    vec![
        kernels::llist::build_with_hops(40),
        kernels::dither::build_with_pixels(40),
    ]
}

fn render(config: &CampaignConfig) -> String {
    let section = run_campaign(&tiny_kernels(), config);
    RunReport::render_all(&[campaign_report("fault_campaign", section)])
}

#[test]
fn campaign_json_is_byte_identical_across_thread_counts() {
    let config = CampaignConfig {
        seed: 3,
        per_kernel: 6,
        ..CampaignConfig::default()
    };
    // Specimens land in index-addressed slots, so the worker count
    // must never show up in the bytes.
    std::env::set_var("UECGRA_THREADS", "1");
    let single = render(&config);
    std::env::set_var("UECGRA_THREADS", "8");
    let eight = render(&config);
    std::env::remove_var("UECGRA_THREADS");
    assert_eq!(single, eight, "campaign JSON depends on the thread count");
}
