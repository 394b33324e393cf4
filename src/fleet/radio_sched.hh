// Forwarding header: the radio arbiters live in sim/radio_sched.hh.
#include "sim/radio_sched.hh"
