//! Helpers shared by the workspace-level integration tests.

use sortnet_network::lanes::Backend;
use sortnet_network::Network;
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};

/// `property` verified with `strategy`: the same report on every runnable
/// lane-ops backend.
pub fn verify(net: &Network, property: Property, strategy: Strategy) -> Report {
    let backends = Backend::runnable();
    let report = try_verify_on(net, property, strategy, backends[0]).unwrap();
    for &backend in &backends[1..] {
        let other = try_verify_on(net, property, strategy, backend).unwrap();
        assert_eq!(other, report, "{} on {net}", backend.name());
    }
    report
}
