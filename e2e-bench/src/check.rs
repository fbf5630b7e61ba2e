//! The correctness gate every operation passes through.
//!
//! A batch result must equal the reference (the swept CMC result on the
//! same data, computed from the in-memory database before any container
//! read) and must cover every convoy the generator planted. A stream result
//! must equal batch CuTS*. A mismatch is a failed operation, never an abort.

use convoy_core::query::result_sets_equivalent;
use convoy_core::{Convoy, ConvoyQuery};
use traj_datasets::PlantedConvoy;

/// Checks a normalised result set against the normalised `reference`, and
/// that it rediscovers every planted convoy the query can see (at least `m`
/// members living at least `k` ticks): some reported convoy must contain all
/// planted members and live at least `k` ticks.
pub fn check_result(
    result: &[Convoy],
    reference: &[Convoy],
    planted: &[PlantedConvoy],
    query: &ConvoyQuery,
) -> Result<(), String> {
    if !result_sets_equivalent(result, reference) {
        return Err(format!(
            "result set ({} convoys) differs from the reference ({} convoys)",
            result.len(),
            reference.len()
        ));
    }
    let k = query.k as i64;
    for p in planted
        .iter()
        .filter(|p| p.members.len() >= query.m && p.lifetime() >= k)
    {
        let covered = result.iter().any(|c| {
            c.lifetime() >= k && p.members.iter().all(|member| c.objects.contains(*member))
        });
        if !covered {
            return Err(format!(
                "planted convoy {:?} over [{}, {}] is not covered",
                p.members, p.start, p.end
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use convoy_core::{Discovery, Method};
    use traj_cluster::Cluster;
    use traj_datasets::{generate, DatasetProfile};

    fn reference() -> (Vec<Convoy>, Vec<PlantedConvoy>, ConvoyQuery) {
        let profile = DatasetProfile::truck().scaled(0.05);
        let data = generate(&profile, 5);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        let convoys = Discovery::new(Method::Cmc)
            .run(&data.database, &query)
            .convoys;
        assert!(!convoys.is_empty(), "the fixture must contain convoys");
        (convoys, data.ground_truth, query)
    }

    #[test]
    fn the_reference_passes() {
        let (convoys, planted, query) = reference();
        assert_eq!(check_result(&convoys, &convoys, &planted, &query), Ok(()));
    }

    #[test]
    fn a_dropped_convoy_fails() {
        let (convoys, planted, query) = reference();
        for drop in 0..convoys.len() {
            let mut altered = convoys.clone();
            altered.remove(drop);
            assert!(check_result(&altered, &convoys, &planted, &query).is_err());
        }
    }

    #[test]
    fn a_removed_member_fails() {
        let (convoys, planted, query) = reference();
        for (i, convoy) in convoys.iter().enumerate() {
            for skip in 0..convoy.objects.len() {
                let mut altered = convoys.clone();
                let members = convoy
                    .objects
                    .members()
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != skip)
                    .map(|(_, id)| *id)
                    .collect();
                altered[i] = Convoy::new(Cluster::new(members), convoy.start, convoy.end);
                assert!(check_result(&altered, &convoys, &planted, &query).is_err());
            }
        }
    }

    #[test]
    fn an_uncovered_planted_convoy_fails() {
        let (convoys, mut planted, query) = reference();
        let mut ghost = planted[0].clone();
        ghost.members.push(trajectory::ObjectId(u64::MAX));
        planted.push(ghost);
        assert!(check_result(&convoys, &convoys, &planted, &query).is_err());
    }
}
