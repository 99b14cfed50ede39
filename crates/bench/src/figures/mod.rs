//! One module per regenerated table or figure.

pub mod ablations;
pub mod applog;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig9;
pub mod fleetfigs;
pub mod headline;
pub mod ingestfig;

#[cfg(test)]
mod smoke_tests {
    //! Cheap smoke tests over the figure harness: the fleet-model figures
    //! and the appendix check run in milliseconds and pin their headline
    //! statistics so harness regressions surface in `cargo test`.

    #[test]
    fn fleet_figures_match_paper_statistics() {
        let dir = std::env::temp_dir().join(format!("ltfig-smoke-{}", std::process::id()));
        std::env::set_var("LITTLETABLE_FIGURE_DIR", &dir);
        let fig7 = super::fleetfigs::run_fig7(true);
        assert_eq!(fig7.series.len(), 2);
        // The LittleTable CDF ends at the 6.7 TB max.
        let lt_max = fig7.series[0].points.last().unwrap().0;
        assert!(lt_max <= 6.7e12 && lt_max > 2e12);

        let fig8 = super::fleetfigs::run_fig8(true);
        let key_max = fig8.series[0].points.last().unwrap().0;
        assert!(key_max < 128.0, "all keys under 128 B");

        let fig10 = super::fleetfigs::run_fig10(true);
        // Over 90% of lookbacks within a week (7 days).
        let lookbacks = &fig10.series[0].points;
        let frac_week = lookbacks
            .iter()
            .filter(|&&(days, _)| days <= 7.0)
            .map(|&(_, f)| f)
            .fold(0.0f64, f64::max);
        assert!(frac_week > 0.9, "within-week fraction {frac_week}");

        let rates = super::fleetfigs::run_rates(true);
        assert_eq!(rates.series.len(), 2);
        std::env::remove_var("LITTLETABLE_FIGURE_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn applog_bounds_hold_in_quick_mode() {
        let dir = std::env::temp_dir().join(format!("ltapplog-smoke-{}", std::process::id()));
        std::env::set_var("LITTLETABLE_FIGURE_DIR", &dir);
        // run() asserts the appendix bound internally.
        let fig = super::applog::run(true);
        assert!(!fig.series[0].points.is_empty());
        std::env::remove_var("LITTLETABLE_FIGURE_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
