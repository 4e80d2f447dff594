#pragma once

namespace fx {

int usedByA(int x);        // linked by app_a only
int usedByB(int x);        // linked by app_b only
int seededDead(int x);     // only the test program calls it
int allowlisted(int x);    // no caller; the selftest allowlists it
int helperOfAllowlisted(int x);  // called only by allowlisted()

}  // namespace fx
