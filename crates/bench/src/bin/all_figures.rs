//! Runs every figure and table of the paper's evaluation in sequence.
use littletable_bench::figures;

fn main() {
    let quick = littletable_bench::quick_flag();
    figures::fig2::run(quick).emit();
    figures::fig3::run(quick).emit();
    figures::fig4::run(quick).emit();
    figures::fig5::run(quick).emit();
    figures::fig6::run(quick).emit();
    figures::fleetfigs::run_fig7(quick).emit();
    figures::fleetfigs::run_fig8(quick).emit();
    figures::fig9::run(quick).emit();
    figures::fleetfigs::run_fig10(quick).emit();
    figures::fleetfigs::run_rates(quick).emit();
    figures::headline::run(quick).emit();
    figures::applog::run(quick).emit();
    figures::ablations::run_bloom(quick).emit();
    figures::ablations::run_periods(quick).emit();
    figures::ablations::run_unique(quick).emit();
}
