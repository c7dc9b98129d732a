/**
 * @file
 * Reproduces paper Figure 13: MPP tracking accuracy under a regular
 * weather pattern (January at the Phoenix AZ station) for the H1, HM2
 * and L1 workloads.
 */

#include "common/tracking_figure.hpp"

int
main(int argc, char **argv)
{
    return solarcore::bench::trackingFigureMain(
        argc, argv, solarcore::solar::SiteId::AZ,
        solarcore::solar::Month::Jan, "Figure 13");
}
